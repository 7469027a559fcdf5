//! The ARM server task: services allocation traffic over the fabric.
//!
//! Every allocation goes through one embedded [`Scheduler`], which applies
//! admission quotas, weighted fair share, priority bands, gang
//! reservations, and oversubscription placement. `SubmitJob` names its
//! tenant; `Allocate` is the same job under [`DEFAULT_TENANT`] (exclusive,
//! all-or-nothing), and because the scheduler only ever considers the
//! head of each tenant's queue, `Allocate` waiters are served strictly in
//! arrival order. The scheduler is a pure state machine; this server
//! snapshots pool capacity into it and applies the placements it returns.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use dacc_fabric::codec::EncodeBuf;
use dacc_fabric::mpi::{Endpoint, Rank};
use dacc_fabric::payload::Payload;
use dacc_sched::{Admitted, Capacity, JobReq, PlaceKind, Scheduler, TenantConfig, TenantId};
use dacc_sim::prelude::*;

use crate::proto::{
    arm_tags, ArmError, ArmEvent, ArmRequest, ArmResponse, EvictReason, Eviction, ReplEntry,
    ReplMsg, DEFAULT_TENANT,
};
use crate::state::{HealthEvent, JobId, Pool};

/// ARM server tuning.
#[derive(Clone, Copy, Debug)]
pub struct ArmServerConfig {
    /// CPU time to process one request.
    pub service_time: SimDuration,
}

impl Default for ArmServerConfig {
    fn default() -> Self {
        ArmServerConfig {
            service_time: SimDuration::from_micros(2),
        }
    }
}

/// High-availability replication tuning (see [`run_arm_server_ha`]).
#[derive(Clone, Copy, Debug)]
pub struct ArmHaConfig {
    /// Primary liveness beacon cadence on quiet links (busy links carry
    /// log entries, which count as liveness too).
    pub beacon_period: SimDuration,
    /// A standby promotes itself after hearing nothing from the primary
    /// for this long (scaled by its replica position so two standbys
    /// never promote simultaneously).
    pub takeover_silence: SimDuration,
    /// Log entries between full-state snapshots pushed to standbys
    /// (0 disables snapshots; standbys then replay the whole log at
    /// takeover).
    pub snapshot_every: u32,
    /// Virtual CPU time a promoting standby charges per buffered log
    /// entry it replays — the knob `ablation_arm_ha` sweeps to show
    /// snapshots bound catch-up time.
    pub replay_cost: SimDuration,
    /// Quiet beacon periods after which an idle primary *parks*: it tells
    /// the standbys to stop expecting beacons and every replica falls
    /// back to untimed receives, so a finished simulation can drain its
    /// event calendar instead of beaconing forever. The next client
    /// request or replication message re-arms the timers. 0 never parks.
    pub park_after: u32,
}

impl Default for ArmHaConfig {
    fn default() -> Self {
        ArmHaConfig {
            beacon_period: SimDuration::from_millis(1),
            takeover_silence: SimDuration::from_millis(4),
            snapshot_every: 64,
            replay_cost: SimDuration::from_micros(1),
            park_after: 8,
        }
    }
}

/// This server's place in the ARM replica set.
#[derive(Clone, Debug)]
pub struct ArmReplica {
    /// All replica ranks; position 0 is the initial primary.
    pub replicas: Vec<Rank>,
    /// This server's index into `replicas`.
    pub position: usize,
}

/// A job (`Allocate` or `SubmitJob`) admitted to the scheduler and
/// awaiting placement: where to send the eventual `Granted`, and when it
/// was submitted (for the grant-latency histogram).
struct PendingSubmit {
    requester: Rank,
    submitted: SimTime,
    /// Dedupe id of the framed request (0 for unframed traffic); the
    /// eventual pushed grant echoes it.
    op_id: u64,
}

/// The full mutable state of one ARM replica plus its I/O handles.
///
/// The request-handling logic lives in methods on this struct so the same
/// code drives both a live primary (sends on) and a standby replaying the
/// replication log at takeover (`live == false`: every outbound send is
/// suppressed and telemetry is muted, but state — including the response
/// dedupe cache — evolves identically, which is what makes input-log
/// replication deterministic).
struct ArmCtx {
    ep: Endpoint,
    config: ArmServerConfig,
    tracer: Tracer,
    tele: dacc_telemetry::Telemetry,
    live: bool,
    pool: Pool,
    contacts: HashMap<JobId, Rank>,
    sched: Scheduler,
    pending: HashMap<JobId, PendingSubmit>,
    /// Last completed framed operation per requester rank: replayed on
    /// retry instead of executing twice (mirrors the daemon dedupe path).
    completed: HashMap<Rank, (u64, ArmResponse)>,
}

/// Run the accelerator resource manager on `ep` until a `Shutdown` request
/// arrives. Returns the final pool (for inspection). Failover and health
/// handling record `arm.failover` and `arm.health` events into `tracer`
/// (pass [`Tracer::disabled`] to record nothing).
///
/// All waiting requests share the scheduler's queue. `Allocate` waiters
/// form one tenant ([`DEFAULT_TENANT`]) whose queue is served strictly in
/// order, so a large request cannot be starved by a stream of small
/// ones, and one that could never fit the pool is rejected at admission
/// instead of blocking the requests behind it.
pub async fn run_arm_server(
    ep: Endpoint,
    pool: Pool,
    config: ArmServerConfig,
    tracer: Tracer,
) -> Pool {
    let tele = ep.fabric().telemetry();
    let handle = ep.fabric().handle().clone();
    let mut ctx = ArmCtx::new(ep, pool, config, tracer, tele);
    loop {
        let env = ctx.ep.recv(None, Some(arm_tags::REQUEST)).await;
        let requester = env.src;
        let raw = env.payload.bytes().map(|b| b.as_ref());
        let Some((op_id, req)) = ctx.admit(requester, raw).await else {
            continue;
        };
        // Model the ARM's processing cost.
        handle.delay(ctx.config.service_time).await;
        if ctx
            .handle_request(requester, op_id, req, handle.now())
            .await
        {
            return ctx.pool;
        }
    }
}

impl ArmCtx {
    fn new(
        ep: Endpoint,
        pool: Pool,
        config: ArmServerConfig,
        tracer: Tracer,
        tele: dacc_telemetry::Telemetry,
    ) -> Self {
        // The scheduler decides every `Allocate` and `SubmitJob` grant. It
        // only sees capacity that is actually free at dispatch time, so the
        // replacement grants `ReportFailure` and evictions make outside it
        // cannot double-grant.
        let sched = Scheduler::new(pool.len() as u32);
        ArmCtx {
            ep,
            config,
            tracer,
            tele,
            live: true,
            pool,
            // Where each job's front-end can be reached for eviction
            // notices (learned from the job's own requests).
            contacts: HashMap::new(),
            sched,
            pending: HashMap::new(),
            completed: HashMap::new(),
        }
    }

    /// Decode one inbound request: strip the dedupe frame, replay the
    /// cached response for a retry of an already-completed framed op,
    /// silently drop a retry of an op still queued for a pushed grant,
    /// and reject malformed bytes. Returns the request only when it must
    /// actually be executed.
    async fn admit(&mut self, requester: Rank, raw: Option<&[u8]>) -> Option<(u64, ArmRequest)> {
        let Some(raw) = raw else {
            self.reply(requester, 0, ArmResponse::Error(ArmError::Malformed))
                .await;
            return None;
        };
        let (op_id, body) = match crate::proto::peek_frame(raw) {
            Some((id, body)) => (id, body),
            None => (0, raw),
        };
        if op_id != 0 {
            if let Some((done, resp)) = self.completed.get(&requester) {
                if *done == op_id {
                    let resp = resp.clone();
                    self.tele.count("arm.ha.dedupe", 1);
                    self.reply(requester, op_id, resp).await;
                    return None;
                }
            }
            // Still in flight (queued for a pushed grant): executing the
            // retry again would enqueue a duplicate. The grant will be
            // pushed when capacity frees; drop the retry.
            let in_flight = self
                .pending
                .values()
                .any(|p| p.requester == requester && p.op_id == op_id);
            if in_flight {
                self.tele.count("arm.ha.dedupe", 1);
                // Re-ack instead of staying silent so a retrying waiter
                // can tell "alive, still queued" from a dead primary.
                self.reply(requester, op_id, ArmResponse::Queued { position: 0 })
                    .await;
                return None;
            }
        }
        match ArmRequest::decode(body) {
            Ok(r) => Some((op_id, r)),
            Err(e) => {
                self.reply(requester, op_id, ArmResponse::Error(e)).await;
                None
            }
        }
    }

    /// Apply one decoded request at time `now`: health sweep, telemetry,
    /// then the request itself. Returns `true` on `Shutdown`.
    ///
    /// This is the deterministic core that replication replays: given the
    /// same starting state and the same `(requester, op_id, req, now)`
    /// sequence, the resulting state (pool epochs and fences, scheduler
    /// virtual times, queues, dedupe cache) is bit-identical whether sends
    /// are live or suppressed.
    async fn handle_request(
        &mut self,
        requester: Rank,
        op_id: u64,
        req: ArmRequest,
        now: SimTime,
    ) -> bool {
        // Lazy health sweep: every received message advances the pool's
        // clocks (heartbeats from healthy daemons keep this frequent).
        let swept = self.pool.tick(now);
        if !swept.is_empty() {
            account(&mut self.sched, &swept);
            self.act_on(swept).await;
            self.sched_dispatch(now).await;
        }

        let kind = match &req {
            ArmRequest::Allocate { .. } => "arm.allocate",
            ArmRequest::SubmitJob { .. } => "arm.submit",
            ArmRequest::Release { .. } | ArmRequest::ReleaseJob { .. } => "arm.release",
            ArmRequest::ReportFailure { .. } => "arm.failover",
            ArmRequest::Heartbeat { .. }
            | ArmRequest::HeartbeatQ { .. }
            | ArmRequest::ProbeResult { .. } => "arm.heartbeat",
            ArmRequest::RenewLease { .. } => "arm.lease",
            ArmRequest::Drain { .. } => "arm.drain",
            _ => "arm.other",
        };
        self.tele.count(kind, 1);
        // Occupancy gauges: once here (covers the lazy sweep above) and
        // again after the request is applied, so the exported value
        // reflects every submit/grant/release/evict transition rather
        // than the state as of the previous message.
        self.publish_gauges();
        let handle = self.ep.fabric().handle().clone();
        let span_tele = self.tele.clone();
        let _req_span = span_tele.span(&handle, kind, || format!("{kind} from {requester}"));
        match req {
            ArmRequest::Allocate { job, count, wait } => {
                let req = JobReq {
                    job: job.0,
                    tenant: TenantId(DEFAULT_TENANT),
                    gang: count,
                    share_ok: false,
                };
                // Unframed `Allocate` waiters get no `Queued` ack: the
                // classic wire protocol stays byte-identical.
                self.submit(requester, op_id, req, wait, op_id != 0, now)
                    .await;
            }
            ArmRequest::SubmitJob {
                job,
                tenant,
                gang,
                share_ok,
                wait,
            } => {
                let req = JobReq {
                    job: job.0,
                    tenant: TenantId(tenant),
                    gang,
                    share_ok,
                };
                self.submit(requester, op_id, req, wait, true, now).await;
            }
            ArmRequest::SetTenant {
                tenant,
                weight,
                priority,
                max_accels,
                max_queued,
            } => {
                self.sched.set_tenant(
                    TenantId(tenant),
                    TenantConfig {
                        weight: weight.max(1),
                        priority,
                        max_accels,
                        max_queued,
                    },
                );
                self.reply(requester, op_id, ArmResponse::Released { released: 0 })
                    .await;
            }
            ArmRequest::Release { job, accels } => {
                let resp = match self.pool.release_at(job, &accels, Some(now)) {
                    Ok((released, events)) => {
                        self.sched.released(job.0, accels.len() as u32);
                        account(&mut self.sched, &events);
                        self.act_on(events).await;
                        ArmResponse::Released { released }
                    }
                    Err(e) => ArmResponse::Error(e),
                };
                self.reply(requester, op_id, resp).await;
                self.sched_dispatch(now).await;
            }
            ArmRequest::ReleaseJob { job } => {
                let (released, events) = self.pool.release_job_at(job, Some(now));
                self.sched.finished(job.0);
                self.sched.cancel(job.0);
                self.pending.remove(&job);
                self.contacts.remove(&job);
                account(&mut self.sched, &events);
                self.act_on(events).await;
                self.reply(requester, op_id, ArmResponse::Released { released })
                    .await;
                self.sched_dispatch(now).await;
            }
            ArmRequest::MarkBroken { accel } => {
                let resp = match self.pool.mark_broken(accel) {
                    Ok(()) => ArmResponse::Released { released: 0 },
                    Err(e) => ArmResponse::Error(e),
                };
                self.reply(requester, op_id, resp).await;
            }
            ArmRequest::Query => {
                let mut stats = self.pool.stats();
                stats.queued_requests = self.sched.queue_depth();
                self.reply(requester, op_id, ArmResponse::Stats(stats))
                    .await;
            }
            ArmRequest::Repair { accel } => {
                let resp = match self.pool.repair(accel) {
                    Ok(()) => ArmResponse::Released { released: 0 },
                    Err(e) => ArmResponse::Error(e),
                };
                self.reply(requester, op_id, resp).await;
                // A repaired accelerator may satisfy a queued request.
                self.sched_dispatch(now).await;
            }
            ArmRequest::ReportFailure { job, accel } => {
                // Mark broken + fence, then grant a substitute in the same
                // round trip so the front-end can fail over without a
                // second request. Duplicate reports for the same loss
                // replay the first grant (no leaked replacements). The
                // broken accelerator stays nominally held by the job until
                // `ReleaseJob` (release tolerates broken).
                self.contacts.insert(job, requester);
                let resp = match self.pool.report_failure(job, accel, Some(now)) {
                    Ok(grants) => {
                        self.tracer
                            .record(self.ep.fabric().handle(), "arm.failover", || {
                                format!(
                                    "job {} lost accel {}; replacement accel {} (rank {})",
                                    job.0, accel.0, grants[0].accel.0, grants[0].daemon_rank.0
                                )
                            });
                        ArmResponse::Granted(grants)
                    }
                    Err(e) => {
                        self.tracer
                            .record(self.ep.fabric().handle(), "arm.failover", || {
                                format!(
                                    "job {} lost accel {}; no replacement ({e})",
                                    job.0, accel.0
                                )
                            });
                        ArmResponse::Error(e)
                    }
                };
                self.reply(requester, op_id, resp).await;
            }
            ArmRequest::RenewLease { job } => {
                self.contacts.insert(job, requester);
                let renewed = self.pool.renew_lease(job, now);
                self.reply(requester, op_id, ArmResponse::Renewed { renewed })
                    .await;
            }
            ArmRequest::Heartbeat { accel, fence, busy } => {
                let resp = match self.pool.heartbeat(accel, fence, busy, now) {
                    Ok((fence, probe)) => ArmResponse::HeartbeatAck { fence, probe },
                    Err(e) => ArmResponse::Error(e),
                };
                self.reply(requester, op_id, resp).await;
                // A fence ack may have made a reclaimed accelerator
                // grantable again.
                self.sched_dispatch(now).await;
            }
            ArmRequest::HeartbeatQ {
                accel,
                fence,
                busy,
                queue_depth,
            } => {
                // Extended beat: identical liveness handling, plus the
                // daemon's admission run-queue depth feeds placement (a
                // backed-up accelerator is penalized by
                // `try_allocate_near`).
                let resp = match self
                    .pool
                    .heartbeat_depth(accel, fence, busy, queue_depth, now)
                {
                    Ok((fence, probe)) => ArmResponse::HeartbeatAck { fence, probe },
                    Err(e) => ArmResponse::Error(e),
                };
                self.reply(requester, op_id, resp).await;
                self.sched_dispatch(now).await;
            }
            ArmRequest::ProbeResult { accel, ok } => {
                let resp = match self.pool.probe_result(accel, ok) {
                    Ok(reintegrated) => {
                        self.tracer
                            .record(self.ep.fabric().handle(), "arm.health", || {
                                format!(
                                    "accel {} probe {}: {}",
                                    accel.0,
                                    if ok { "passed" } else { "failed" },
                                    if reintegrated {
                                        "reintegrated on probation"
                                    } else {
                                        "kept out of pool"
                                    }
                                )
                            });
                        ArmResponse::Released {
                            released: u32::from(reintegrated),
                        }
                    }
                    Err(e) => ArmResponse::Error(e),
                };
                self.reply(requester, op_id, resp).await;
                self.sched_dispatch(now).await;
            }
            ArmRequest::Drain { accel } => {
                let resp = match self.pool.drain(accel, Some(now)) {
                    Ok(events) => {
                        let evicted = events.len() as u32;
                        account(&mut self.sched, &events);
                        self.act_on(events).await;
                        ArmResponse::Released { released: evicted }
                    }
                    Err(e) => ArmResponse::Error(e),
                };
                self.reply(requester, op_id, resp).await;
            }
            ArmRequest::Shutdown => {
                self.reply(requester, op_id, ArmResponse::Released { released: 0 })
                    .await;
                return true;
            }
        }
        // Re-export after applying the request: every occupancy or queue
        // transition (submit, grant, release, evict, heartbeat-triggered
        // reclaim) lands in the gauges immediately.
        self.publish_gauges();
        false
    }
}

impl ArmCtx {
    /// Export the ARM occupancy gauges from current state. Called on every
    /// state transition — not only when a query happens to arrive — so a
    /// telemetry scrape between messages always sees up-to-date values.
    fn publish_gauges(&self) {
        let s = self.pool.stats();
        self.tele
            .gauge("arm.queue_depth", f64::from(self.sched.queue_depth()));
        let denom = s.free + s.assigned;
        self.tele.gauge(
            "arm.accel_utilization",
            f64::from(s.assigned) / f64::from(denom.max(1)),
        );
    }

    /// Send `resp` to `to`, recording it in the dedupe cache when the
    /// request was framed (`op_id != 0`) so a retry replays it instead of
    /// re-executing. On a standby (`!self.live`) the cache still updates —
    /// replay must reconstruct it — but nothing touches the wire.
    async fn reply(&mut self, to: Rank, op_id: u64, resp: ArmResponse) {
        if op_id != 0 {
            self.completed.insert(to, (op_id, resp.clone()));
        }
        if !self.live {
            return;
        }
        let bytes = ARM_ENC.with(|enc| {
            let enc = &mut enc.borrow_mut();
            if op_id == 0 {
                resp.encode_into(enc)
            } else {
                crate::proto::frame_response(op_id, &resp, enc)
            }
        });
        self.tele.count("wire.encode_bytes", bytes.len() as u64);
        self.ep
            .send(to, arm_tags::RESPONSE, Payload::from_bytes(bytes))
            .await;
    }

    /// Send a one-way ARM event notice (suppressed on a standby).
    async fn notify(&self, to: Rank, notice: &ArmEvent) {
        if !self.live {
            return;
        }
        let bytes = ARM_ENC.with(|enc| notice.encode_into(&mut enc.borrow_mut()));
        self.tele.count("wire.encode_bytes", bytes.len() as u64);
        self.ep
            .send(to, arm_tags::EVENT, Payload::from_bytes(bytes))
            .await;
    }

    /// Act on health-plane transitions: count them, trace them, and forward
    /// evictions to the holding job's front-end as one-way notices (eager
    /// sends — a dead client can never wedge the ARM).
    async fn act_on(&mut self, events: Vec<HealthEvent>) {
        for ev in events {
            match ev {
                HealthEvent::Suspected { accel } => {
                    self.tele.count("arm.health.suspect", 1);
                    self.tracer
                        .record(self.ep.fabric().handle(), "arm.health", || {
                            format!("accel {} missed heartbeats: suspect", accel.0)
                        });
                }
                HealthEvent::Broke { accel } => {
                    self.tele.count("arm.health.broken", 1);
                    self.tracer
                        .record(self.ep.fabric().handle(), "arm.health", || {
                            format!("accel {} permanently broken", accel.0)
                        });
                }
                HealthEvent::Evicted {
                    job,
                    accel,
                    epoch,
                    reason,
                    replacement,
                } => {
                    let kind = match reason {
                        EvictReason::LeaseExpired => "arm.lease.expired",
                        EvictReason::Quarantined => "arm.health.quarantine",
                        EvictReason::Drained => "arm.drain.evict",
                    };
                    self.tele.count(kind, 1);
                    self.tracer.record(self.ep.fabric().handle(), kind, || {
                        format!(
                            "job {} evicted from accel {} (epoch {epoch}); replacement {:?}",
                            job.0,
                            accel.0,
                            replacement.map(|g| g.accel.0)
                        )
                    });
                    if let Some(&to) = self.contacts.get(&job) {
                        let notice = ArmEvent::Evict(Eviction {
                            accel,
                            epoch,
                            reason,
                            replacement,
                        });
                        self.notify(to, &notice).await;
                    }
                }
                HealthEvent::Rotated { job, accel, grant } => {
                    // A time slice rotated this job back onto a shared
                    // accelerator: forward the fresh grant (new epoch) so the
                    // front-end can resume issuing fenced ops.
                    self.tele.count("arm.sched.rotation", 1);
                    self.tracer
                        .record(self.ep.fabric().handle(), "arm.sched", || {
                            format!(
                                "job {} active on shared accel {} (epoch {})",
                                job.0, accel.0, grant.epoch
                            )
                        });
                    if let Some(&to) = self.contacts.get(&job) {
                        let notice = ArmEvent::Slice { grant };
                        self.notify(to, &notice).await;
                    }
                }
            }
        }
    }
}

/// Reconcile the scheduler's holdings with health-plane outcomes: an
/// eviction without a replacement shrinks the job's footprint by one (the
/// replacement case is net zero). Jobs the scheduler no longer tracks are
/// no-ops.
fn account(sched: &mut Scheduler, events: &[HealthEvent]) {
    for ev in events {
        if let HealthEvent::Evicted {
            job,
            replacement: None,
            ..
        } = ev
        {
            sched.released(job.0, 1);
        }
    }
}

impl ArmCtx {
    /// Admit one job to the scheduler and try to start it at once. A job
    /// the scheduler refuses is answered with the reason; one that started
    /// is answered by [`ArmCtx::sched_dispatch`]. One still queued either
    /// waits (`wait`: acked `Queued` when `ack`, granted once capacity
    /// frees) or is withdrawn and answered `Insufficient`.
    async fn submit(
        &mut self,
        requester: Rank,
        op_id: u64,
        req: JobReq,
        wait: bool,
        ack: bool,
        now: SimTime,
    ) {
        let job = JobId(req.job);
        self.contacts.insert(job, requester);
        let position = match self.sched.submit(req) {
            Admitted::Queued { position } => position,
            Admitted::Rejected(reason) => {
                self.tele.count("arm.sched.reject", 1);
                let resp = ArmResponse::Error(ArmError::Rejected(reason));
                self.reply(requester, op_id, resp).await;
                return;
            }
        };
        let ps = PendingSubmit {
            requester,
            submitted: now,
            op_id,
        };
        self.pending.insert(job, ps);
        self.sched_dispatch(now).await;
        if !self.pending.contains_key(&job) {
            return;
        }
        if wait {
            // Framed waiters use the ack (and its dedupe-cache replay on
            // retries) as a liveness signal during the open-ended wait.
            if ack {
                self.reply(requester, op_id, ArmResponse::Queued { position })
                    .await;
            }
        } else {
            self.sched.cancel(req.job);
            self.pending.remove(&job);
            let free = self.pool.free_count();
            let resp = ArmResponse::Error(ArmError::Insufficient {
                requested: req.gang,
                free,
            });
            self.reply(requester, op_id, resp).await;
        }
    }

    /// Ask the scheduler what to start given the pool's current free
    /// capacity and apply its placements: exclusive gangs through
    /// `try_allocate_near` (opening a share domain when the job
    /// consented), shared singles through `try_join_share_at`. Grants are
    /// pushed to the submitters recorded in `pending`.
    async fn sched_dispatch(&mut self, now: SimTime) {
        let cap = Capacity {
            free: self.pool.free_count(),
            share_slots: self.pool.share_slots(),
        };
        for p in self.sched.dispatch(cap) {
            let job = JobId(p.job);
            let result = match p.kind {
                PlaceKind::Exclusive => {
                    // Place the gang near the submitting front-end when we
                    // still know where it lives (pushed grants keep no
                    // contact once acknowledged).
                    let near = self
                        .pending
                        .get(&job)
                        .map(|ps| self.ep.fabric().node_of(ps.requester));
                    let pool = &mut self.pool;
                    pool.try_allocate_near(job, p.gang, Some(now), near)
                        .map(|grants| {
                            if p.share_ok && p.gang == 1 && pool.share_config().is_some() {
                                // Consenting single-accel job: open its accelerator
                                // for time-sliced co-residents.
                                let _ = pool.open_share(grants[0].accel, job);
                            }
                            grants
                        })
                }
                PlaceKind::Shared => self.pool.try_join_share_at(job, Some(now)).map(|g| vec![g]),
            };
            match result {
                Ok(grants) => {
                    self.tele.count("arm.sched.grant", 1);
                    if let Some(ps) = self.pending.remove(&job) {
                        self.tele.observe(
                            "arm.sched.grant_latency",
                            now.saturating_since(ps.submitted),
                        );
                        self.reply(ps.requester, ps.op_id, ArmResponse::Granted(grants))
                            .await;
                    }
                }
                Err(e) => {
                    // The capacity snapshot went stale mid-application (e.g. a
                    // health transition). Roll the scheduler back and fail the
                    // submit rather than wedge it.
                    self.sched.released(p.job, p.gang);
                    if let Some(ps) = self.pending.remove(&job) {
                        self.reply(ps.requester, ps.op_id, ArmResponse::Error(e))
                            .await;
                    }
                }
            }
        }
    }
}

std::thread_local! {
    /// Server-side encode arena: ARM responses and event notices reuse one
    /// buffer instead of allocating per message (the sim is
    /// single-threaded, so a thread-local is effectively process-global).
    static ARM_ENC: std::cell::RefCell<EncodeBuf> = std::cell::RefCell::new(EncodeBuf::new());
}

/// Version tag of the full-server snapshot wire format.
const SERVER_SNAPSHOT_VERSION: u8 = 2;

impl ArmCtx {
    /// Serialize the complete replica state — pool, scheduler, contacts,
    /// pending jobs, and the dedupe cache — into one
    /// deterministic byte string a standby can install verbatim.
    fn snapshot_state(&self) -> Vec<u8> {
        fn put_u32(out: &mut Vec<u8>, v: u32) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn put_u64(out: &mut Vec<u8>, v: u64) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let mut out = Vec::new();
        out.push(SERVER_SNAPSHOT_VERSION);
        let pool = self.pool.save_state();
        put_u32(&mut out, pool.len() as u32);
        out.extend_from_slice(&pool);
        let sched = self.sched.snapshot_bytes();
        put_u32(&mut out, sched.len() as u32);
        out.extend_from_slice(&sched);
        let mut contacts: Vec<_> = self.contacts.iter().collect();
        contacts.sort_by_key(|(job, _)| job.0);
        put_u32(&mut out, contacts.len() as u32);
        for (job, rank) in contacts {
            put_u64(&mut out, job.0);
            put_u32(&mut out, rank.0 as u32);
        }
        let mut pending: Vec<_> = self.pending.iter().collect();
        pending.sort_by_key(|(job, _)| job.0);
        put_u32(&mut out, pending.len() as u32);
        for (job, ps) in pending {
            put_u64(&mut out, job.0);
            put_u32(&mut out, ps.requester.0 as u32);
            put_u64(&mut out, ps.submitted.as_nanos());
            put_u64(&mut out, ps.op_id);
        }
        let mut completed: Vec<_> = self.completed.iter().collect();
        completed.sort_by_key(|(rank, _)| rank.0);
        put_u32(&mut out, completed.len() as u32);
        for (rank, (op_id, resp)) in completed {
            put_u32(&mut out, rank.0 as u32);
            put_u64(&mut out, *op_id);
            let bytes = resp.encode();
            put_u32(&mut out, bytes.len() as u32);
            out.extend_from_slice(&bytes);
        }
        out
    }

    /// Install a [`ArmCtx::snapshot_state`] image, replacing all replica
    /// state. Everything is parsed and validated before anything is
    /// assigned, so a malformed snapshot leaves the current state intact.
    fn install_state(&mut self, bytes: &[u8]) -> Result<(), ArmError> {
        use crate::proto::Reader;
        let mut r = Reader::new(bytes);
        if r.u8()? != SERVER_SNAPSHOT_VERSION {
            return Err(ArmError::Malformed);
        }
        let n = r.u32()? as usize;
        let pool_bytes = r.bytes(n)?;
        let n = r.u32()? as usize;
        let sched_bytes = r.bytes(n)?;
        let n_contacts = r.u32()?;
        let mut contacts = HashMap::new();
        for _ in 0..n_contacts {
            let job = JobId(r.u64()?);
            contacts.insert(job, Rank(r.u32()? as usize));
        }
        let n_pending = r.u32()?;
        let mut pending = HashMap::new();
        for _ in 0..n_pending {
            let job = JobId(r.u64()?);
            pending.insert(
                job,
                PendingSubmit {
                    requester: Rank(r.u32()? as usize),
                    submitted: SimTime::from_nanos(r.u64()?),
                    op_id: r.u64()?,
                },
            );
        }
        let n_completed = r.u32()?;
        let mut completed = HashMap::new();
        for _ in 0..n_completed {
            let rank = Rank(r.u32()? as usize);
            let op_id = r.u64()?;
            let len = r.u32()? as usize;
            let resp = ArmResponse::decode(r.bytes(len)?)?;
            completed.insert(rank, (op_id, resp));
        }
        r.finish()?;
        let sched = Scheduler::restore(sched_bytes).ok_or(ArmError::Malformed)?;
        // `load_state` validates fully before mutating, so a failure here
        // still leaves `self` untouched.
        self.pool.load_state(pool_bytes)?;
        self.sched = sched;
        self.contacts = contacts;
        self.pending = pending;
        self.completed = completed;
        Ok(())
    }
}

/// Send one replication message through the shared encode arena.
async fn send_repl(ep: &Endpoint, to: Rank, msg: &ReplMsg) {
    let bytes = ARM_ENC.with(|enc| msg.encode_into(&mut enc.borrow_mut()));
    ep.fabric()
        .telemetry()
        .count("wire.encode_bytes", bytes.len() as u64);
    ep.send(to, arm_tags::REPL, Payload::from_bytes(bytes))
        .await;
}

/// Standby-side direct response (the standby has no live `ArmCtx` sends):
/// used to bounce client requests with `NotPrimary`.
async fn send_response_raw(ep: &Endpoint, to: Rank, op_id: u64, resp: &ArmResponse) {
    let bytes = ARM_ENC.with(|enc| {
        let enc = &mut enc.borrow_mut();
        if op_id == 0 {
            resp.encode_into(enc)
        } else {
            crate::proto::frame_response(op_id, resp, enc)
        }
    });
    ep.fabric()
        .telemetry()
        .count("wire.encode_bytes", bytes.len() as u64);
    ep.send(to, arm_tags::RESPONSE, Payload::from_bytes(bytes))
        .await;
}

fn process_fault(fault: &Option<Arc<dyn FaultHook>>, rank: Rank, now: SimTime) -> ProcessFault {
    fault
        .as_ref()
        .map_or(ProcessFault::Healthy, |f| f.process_state(rank.0, now))
}

/// Run one member of a replicated ARM. `replica.position == 0` starts as
/// the primary; the rest start as standbys.
///
/// The primary appends every executed request to a deterministic input
/// log, ships each entry to the standbys *before* responding (log-ahead:
/// the fabric is reliable FIFO per link, so if a response arrived the
/// entry did too), and pushes a full-state snapshot every
/// `ha.snapshot_every` entries. Standbys buffer entries lazily and answer
/// client traffic with `NotPrimary`; after `ha.takeover_silence` of
/// hearing nothing (scaled by position so standbys promote in order), a
/// standby replays its buffered log — charging `ha.replay_cost` per entry
/// — rebases leases over the outage gap, and serves as the new primary.
/// Epochs and fences continue monotonically from the replicated state, so
/// grants held across the takeover stay valid and zombies stay fenced.
pub async fn run_arm_server_ha(
    ep: Endpoint,
    pool: Pool,
    config: ArmServerConfig,
    ha: ArmHaConfig,
    replica: ArmReplica,
    tracer: Tracer,
    fault: Option<Arc<dyn FaultHook>>,
) -> Pool {
    let real_tele = ep.fabric().telemetry();
    let real_tracer = tracer.clone();
    let handle = ep.fabric().handle().clone();
    let me = replica.replicas[replica.position];
    let peers: Vec<Rank> = replica
        .replicas
        .iter()
        .copied()
        .filter(|&r| r != me)
        .collect();
    let primary = replica.position == 0;
    let mut ctx = if primary {
        ArmCtx::new(ep, pool, config, tracer, real_tele.clone())
    } else {
        // Standby: state evolves via replication only; sends are
        // suppressed and service telemetry muted (the real registry is
        // fabric-global — double-counting would corrupt cluster metrics).
        let mut ctx = ArmCtx::new(
            ep,
            pool,
            config,
            Tracer::disabled(),
            dacc_telemetry::Telemetry::disabled(),
        );
        ctx.live = false;
        ctx
    };

    // Replication log state. On the primary `log` holds the tail since the
    // last snapshot (for Hello catch-up); on a standby it holds buffered,
    // not-yet-applied entries.
    let mut next_index: u64 = 0;
    let mut applied: u64 = 0;
    let mut log: VecDeque<ReplEntry> = VecDeque::new();
    let mut snapshot: Option<(u64, Vec<u8>)> = None;
    let mut last_heard = handle.now();
    let mut is_primary = primary;
    // Parked: the cluster went idle and every replica dropped its timers
    // (see [`ArmHaConfig::park_after`]); receives block untimed.
    let mut parked = false;
    let mut quiet: u32 = 0;

    if is_primary {
        real_tele.gauge("arm.role", 0.0);
    } else {
        // Announce ourselves so a primary that already made progress
        // (e.g. a standby restarted mid-run) sends catch-up state.
        send_repl(&ctx.ep, replica.replicas[0], &ReplMsg::Hello { have: 0 }).await;
    }
    // A standby further down the replica list waits proportionally longer,
    // so two standbys never promote simultaneously.
    let my_silence = SimDuration::from_nanos(
        ha.takeover_silence
            .as_nanos()
            .saturating_mul(replica.position.max(1) as u64),
    );

    loop {
        match process_fault(&fault, me, handle.now()) {
            ProcessFault::Crash => return ctx.pool,
            ProcessFault::Hang(d) => handle.delay(d).await,
            ProcessFault::Healthy => {}
        }
        if is_primary {
            let env = if parked {
                Some(ctx.ep.recv(None, None).await)
            } else {
                ctx.ep.recv_timeout(None, None, ha.beacon_period).await
            };
            // A crash that struck while we were blocked in recv must not
            // let the wake-up message be served posthumously.
            if env.is_some() && process_fault(&fault, me, handle.now()) == ProcessFault::Crash {
                return ctx.pool;
            }
            let Some(env) = env else {
                quiet += 1;
                if ha.park_after > 0 && quiet >= ha.park_after {
                    // Idle long enough: release every replica's timers so
                    // the simulation can drain once work stops arriving.
                    for &p in &peers {
                        send_repl(&ctx.ep, p, &ReplMsg::Park { index: next_index }).await;
                    }
                    parked = true;
                    quiet = 0;
                } else {
                    // Quiet link: prove liveness to the standbys.
                    for &p in &peers {
                        send_repl(&ctx.ep, p, &ReplMsg::Beacon { index: next_index }).await;
                    }
                }
                continue;
            };
            parked = false;
            quiet = 0;
            if env.tag == arm_tags::REPL {
                let Some(raw) = env.payload.bytes() else {
                    continue;
                };
                match ReplMsg::decode(raw) {
                    Ok(ReplMsg::Hello { have }) => {
                        // Catch the standby up: latest snapshot (if it is
                        // ahead of the standby) plus the buffered tail.
                        if let Some((idx, state)) = &snapshot {
                            if *idx > have {
                                let msg = ReplMsg::Snapshot {
                                    index: *idx,
                                    state: state.clone(),
                                };
                                send_repl(&ctx.ep, env.src, &msg).await;
                            }
                        }
                        for e in &log {
                            if e.index >= have {
                                send_repl(&ctx.ep, env.src, &ReplMsg::Entry(e.clone())).await;
                            }
                        }
                    }
                    Ok(ReplMsg::Beacon { index }) if index >= next_index => {
                        // A peer beaconing at or beyond our index means a
                        // standby promoted while we were partitioned away.
                        // Step down to standby so a healed partition never
                        // leaves two primaries serving divergent state:
                        // our state is a prefix of the winner's (nothing
                        // reached us during the partition), so we resync
                        // from it like any lagging standby.
                        is_primary = false;
                        ctx.live = false;
                        ctx.tele = dacc_telemetry::Telemetry::disabled();
                        ctx.tracer = Tracer::disabled();
                        applied = next_index;
                        log.clear();
                        snapshot = None;
                        last_heard = handle.now();
                        send_repl(&ctx.ep, env.src, &ReplMsg::Hello { have: applied }).await;
                    }
                    _ => {}
                }
                continue;
            }
            if env.tag != arm_tags::REQUEST {
                continue;
            }
            let requester = env.src;
            let raw = env.payload.bytes().map(|b| b.as_ref());
            let Some((op_id, req)) = ctx.admit(requester, raw).await else {
                continue;
            };
            // Model the ARM's processing cost, then pin the timestamp the
            // request executes at — the log entry carries it so a standby
            // replays at the identical virtual instant.
            handle.delay(ctx.config.service_time).await;
            let now = handle.now();
            let body = match env.payload.bytes().map(|b| b.as_ref()) {
                Some(raw) => match crate::proto::peek_frame(raw) {
                    Some((_, b)) => b.to_vec(),
                    None => raw.to_vec(),
                },
                None => Vec::new(),
            };
            let entry = ReplEntry {
                index: next_index,
                now_ns: now.as_nanos(),
                src: requester.0 as u32,
                op_id,
                frame: body,
            };
            // Log-ahead: every standby holds the entry before the client
            // can observe any effect of it.
            for &p in &peers {
                send_repl(&ctx.ep, p, &ReplMsg::Entry(entry.clone())).await;
            }
            if !peers.is_empty() {
                real_tele.count("arm.ha.replicated_ops", 1);
            }
            log.push_back(entry);
            next_index += 1;
            let shutdown = ctx.handle_request(requester, op_id, req, now).await;
            if ha.snapshot_every > 0 && next_index.is_multiple_of(u64::from(ha.snapshot_every)) {
                let state = ctx.snapshot_state();
                real_tele.count("arm.ha.snapshot_bytes", state.len() as u64);
                for &p in &peers {
                    let msg = ReplMsg::Snapshot {
                        index: next_index,
                        state: state.clone(),
                    };
                    send_repl(&ctx.ep, p, &msg).await;
                }
                snapshot = Some((next_index, state));
                log.clear();
            }
            if shutdown {
                return ctx.pool;
            }
        } else {
            // Standby: buffer replication, bounce clients, watch for
            // silence (unless parked — then only traffic re-arms us).
            let env = if parked {
                Some(ctx.ep.recv(None, None).await)
            } else {
                ctx.ep.recv_timeout(None, None, ha.beacon_period).await
            };
            if env.is_some() && process_fault(&fault, me, handle.now()) == ProcessFault::Crash {
                return ctx.pool;
            }
            let Some(env) = env else {
                let now = handle.now();
                if now.saturating_since(last_heard) < my_silence {
                    continue;
                }
                // Takeover: replay the buffered log (this is where lazy
                // standbys pay — `ablation_arm_ha` measures it), rebase
                // leases over the outage gap, go live.
                let silence_from = last_heard;
                let mut shutdown = false;
                let backlog: Vec<ReplEntry> = log.drain(..).collect();
                for e in &backlog {
                    handle.delay(ha.replay_cost).await;
                    let Ok(req) = ArmRequest::decode(&e.frame) else {
                        applied += 1;
                        continue;
                    };
                    let enow = SimTime::from_nanos(e.now_ns);
                    if ctx
                        .handle_request(Rank(e.src as usize), e.op_id, req, enow)
                        .await
                    {
                        shutdown = true;
                        break;
                    }
                    applied += 1;
                }
                if shutdown {
                    return ctx.pool;
                }
                // Keep the replayed entries around: a surviving second
                // standby may Hello for exactly this tail.
                log = backlog.into();
                let now = handle.now();
                ctx.pool.grace_rebase(now);
                ctx.live = true;
                ctx.tele = real_tele.clone();
                ctx.tracer = real_tracer.clone();
                next_index = applied;
                snapshot = None;
                real_tele.count("arm.ha.takeovers", 1);
                real_tele.observe(
                    "arm.ha.takeover_latency",
                    now.saturating_since(silence_from),
                );
                real_tele.gauge("arm.role", replica.position as f64);
                is_primary = true;
                continue;
            };
            match env.tag {
                arm_tags::REPL => {
                    last_heard = handle.now();
                    let Some(raw) = env.payload.bytes() else {
                        continue;
                    };
                    let Ok(msg) = ReplMsg::decode(raw) else {
                        continue;
                    };
                    let expected = applied + log.len() as u64;
                    match msg {
                        ReplMsg::Entry(e) => {
                            if e.index == expected {
                                // An orderly primary shutdown replicates
                                // its own Shutdown; the standby exits too
                                // instead of idling until takeover.
                                if matches!(ArmRequest::decode(&e.frame), Ok(ArmRequest::Shutdown))
                                {
                                    return ctx.pool;
                                }
                                log.push_back(e);
                            } else if e.index > expected {
                                send_repl(&ctx.ep, env.src, &ReplMsg::Hello { have: expected })
                                    .await;
                            }
                            // e.index < expected: duplicate catch-up, drop.
                        }
                        ReplMsg::Beacon { index } => {
                            if index > expected {
                                send_repl(&ctx.ep, env.src, &ReplMsg::Hello { have: expected })
                                    .await;
                            }
                        }
                        ReplMsg::Snapshot { index, state } => {
                            if index > applied && ctx.install_state(&state).is_ok() {
                                applied = index;
                                while log.front().is_some_and(|e| e.index < index) {
                                    log.pop_front();
                                }
                            }
                        }
                        ReplMsg::Park { index } => {
                            if index > expected {
                                // Missed entries; catch up before idling.
                                send_repl(&ctx.ep, env.src, &ReplMsg::Hello { have: expected })
                                    .await;
                            } else {
                                parked = true;
                            }
                        }
                        ReplMsg::Hello { .. } => {} // only primaries serve catch-up
                    }
                }
                arm_tags::REQUEST => {
                    if parked {
                        // A client is probing while the cluster is parked:
                        // the primary may have died idle. Re-arm the
                        // silence timer so takeover can still trigger.
                        parked = false;
                        last_heard = handle.now();
                    }
                    // Not the primary: bounce, echoing the dedupe id so
                    // the client can match the error to its operation.
                    let op_id = env
                        .payload
                        .bytes()
                        .and_then(|b| crate::proto::peek_frame(b))
                        .map_or(0, |(id, _)| id);
                    send_response_raw(
                        &ctx.ep,
                        env.src,
                        op_id,
                        &ArmResponse::Error(ArmError::NotPrimary),
                    )
                    .await;
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ArmClient;
    use crate::state::{inventory, AcceleratorId, Pool};
    use dacc_fabric::mpi::Fabric;
    use dacc_fabric::topology::{FabricParams, NodeId, Topology};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Cluster: node 0 = ARM, node 1.. = compute nodes, accelerators on
    /// dedicated nodes after that (daemon ranks are placeholders here; the
    /// ARM does not talk to daemons).
    fn setup(n_cn: usize, n_ac: usize) -> (Sim, Fabric, Vec<Endpoint>, Endpoint) {
        let sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::new(&h, 1 + n_cn + n_ac, FabricParams::qdr_infiniband());
        let fabric = Fabric::new(&h, topo);
        let arm_ep = fabric.add_endpoint(NodeId(0));
        let cn_eps: Vec<Endpoint> = (0..n_cn)
            .map(|i| fabric.add_endpoint(NodeId(1 + i)))
            .collect();
        (sim, fabric, cn_eps, arm_ep)
    }

    fn spawn_arm(sim: &Sim, arm_ep: Endpoint, n_ac: usize, n_cn: usize) {
        let nodes: Vec<NodeId> = (0..n_ac).map(|i| NodeId(1 + n_cn + i)).collect();
        let ranks: Vec<Rank> = (0..n_ac).map(|i| Rank(1 + n_cn + i)).collect();
        let pool = Pool::new(inventory(&nodes, &ranks));
        sim.spawn("arm", async move {
            run_arm_server(arm_ep, pool, ArmServerConfig::default(), Tracer::disabled()).await;
        });
    }

    #[test]
    fn allocate_use_release_over_fabric() {
        let (mut sim, _fabric, mut cns, arm_ep) = setup(1, 3);
        spawn_arm(&sim, arm_ep, 3, 1);
        let cn = cns.remove(0);
        let result = sim.spawn("cn", async move {
            let client = ArmClient::new(cn, Rank(0));
            let grants = client.allocate(JobId(1), 2).await.unwrap();
            assert_eq!(grants.len(), 2);
            let stats = client.query().await;
            assert_eq!((stats.free, stats.assigned), (1, 2));
            let released = client.release_job(JobId(1)).await;
            assert_eq!(released, 2);
            let stats = client.query().await;
            client.shutdown().await;
            stats.free
        });
        sim.run();
        assert_eq!(result.try_take(), Some(3));
    }

    #[test]
    fn failfast_insufficient() {
        let (mut sim, _fabric, mut cns, arm_ep) = setup(1, 1);
        spawn_arm(&sim, arm_ep, 1, 1);
        let cn = cns.remove(0);
        let result = sim.spawn("cn", async move {
            let client = ArmClient::new(cn, Rank(0));
            client.allocate(JobId(1), 1).await.unwrap();
            let err = client.allocate(JobId(2), 1).await.unwrap_err();
            client.shutdown().await;
            err
        });
        sim.run();
        assert_eq!(
            result.try_take(),
            Some(ArmError::Insufficient {
                requested: 1,
                free: 0
            })
        );
    }

    #[test]
    fn waiting_allocation_granted_on_release() {
        let (mut sim, _fabric, mut cns, arm_ep) = setup(2, 1);
        spawn_arm(&sim, arm_ep, 1, 2);
        let cn_a = cns.remove(0);
        let cn_b = cns.remove(0);
        let h = sim.handle();
        let grant_time = Rc::new(RefCell::new(SimTime::ZERO));
        {
            // Job 1 holds the accelerator for 1ms, then releases.
            let h = h.clone();
            sim.spawn("job1", async move {
                let client = ArmClient::new(cn_a, Rank(0));
                client.allocate(JobId(1), 1).await.unwrap();
                h.delay(SimDuration::from_millis(1)).await;
                client.release_job(JobId(1)).await;
            });
        }
        {
            // Job 2 queues at ~10us and is granted after job 1 releases.
            let h = h.clone();
            let grant_time = Rc::clone(&grant_time);
            sim.spawn("job2", async move {
                h.delay(SimDuration::from_micros(10)).await;
                let client = ArmClient::new(cn_b, Rank(0));
                let grants = client.allocate_waiting(JobId(2), 1).await.unwrap();
                assert_eq!(grants.len(), 1);
                *grant_time.borrow_mut() = h.now();
                client.release_job(JobId(2)).await;
                client.shutdown().await;
            });
        }
        sim.run();
        assert!(
            *grant_time.borrow() >= SimTime::ZERO + SimDuration::from_millis(1),
            "granted at {} before release",
            *grant_time.borrow()
        );
    }

    #[test]
    fn broken_accelerator_excluded_from_grants() {
        let (mut sim, _fabric, mut cns, arm_ep) = setup(1, 2);
        spawn_arm(&sim, arm_ep, 2, 1);
        let cn = cns.remove(0);
        let got = sim.spawn("cn", async move {
            let client = ArmClient::new(cn, Rank(0));
            client.mark_broken(AcceleratorId(0)).await.unwrap();
            let grants = client.allocate(JobId(1), 1).await.unwrap();
            client.shutdown().await;
            grants[0].accel
        });
        sim.run();
        assert_eq!(got.try_take(), Some(AcceleratorId(1)));
    }

    #[test]
    fn report_failure_marks_broken_and_grants_replacement() {
        let (mut sim, _fabric, mut cns, arm_ep) = setup(1, 3);
        let tracer = Tracer::new(64);
        {
            let nodes: Vec<NodeId> = (0..3).map(|i| NodeId(2 + i)).collect();
            let ranks: Vec<Rank> = (0..3).map(|i| Rank(2 + i)).collect();
            let pool = Pool::new(inventory(&nodes, &ranks));
            let tracer = tracer.clone();
            sim.spawn("arm", async move {
                run_arm_server(arm_ep, pool, ArmServerConfig::default(), tracer).await;
            });
        }
        let cn = cns.remove(0);
        let out = sim.spawn("cn", async move {
            let client = ArmClient::new(cn, Rank(0));
            let grants = client.allocate(JobId(1), 1).await.unwrap();
            let lost = grants[0].accel;
            // The accelerator dies; report it and get a substitute.
            let replacement = client.report_failure(JobId(1), lost).await.unwrap();
            assert_ne!(replacement.accel, lost);
            let stats = client.query().await;
            assert_eq!((stats.broken, stats.assigned), (1, 1));
            // A second failure still finds capacity; a third does not.
            let replacement2 = client
                .report_failure(JobId(1), replacement.accel)
                .await
                .unwrap();
            let err = client
                .report_failure(JobId(1), replacement2.accel)
                .await
                .unwrap_err();
            assert!(matches!(err, ArmError::Insufficient { free: 0, .. }));
            client.release_job(JobId(1)).await;
            client.shutdown().await;
            true
        });
        sim.run();
        assert_eq!(out.try_take(), Some(true));
        assert!(
            tracer.events_in("arm.failover").len() >= 3,
            "failover decisions must be traced"
        );
    }

    #[test]
    fn fifo_queue_is_fair() {
        // One accelerator; jobs 2 and 3 queue in order; grants follow order.
        let (mut sim, _fabric, mut cns, arm_ep) = setup(3, 1);
        spawn_arm(&sim, arm_ep, 1, 3);
        let order = Rc::new(RefCell::new(Vec::new()));
        let holder = cns.remove(0);
        let h0 = sim.handle();
        sim.spawn("job1", async move {
            let client = ArmClient::new(holder, Rank(0));
            client.allocate(JobId(1), 1).await.unwrap();
            h0.delay(SimDuration::from_millis(1)).await;
            client.release_job(JobId(1)).await;
        });
        for (i, job) in [(0usize, 2u64), (1, 3)] {
            let cn = cns.remove(0);
            let h = sim.handle();
            let order = Rc::clone(&order);
            sim.spawn("waiter", async move {
                // Stagger arrivals so queue order is deterministic.
                h.delay(SimDuration::from_micros(10 * (i as u64 + 1))).await;
                let client = ArmClient::new(cn, Rank(0));
                client.allocate_waiting(JobId(job), 1).await.unwrap();
                order.borrow_mut().push(job);
                h.delay(SimDuration::from_micros(100)).await;
                client.release_job(JobId(job)).await;
                if job == 3 {
                    client.shutdown().await;
                }
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![2, 3]);
    }

    #[test]
    fn oversized_waiter_is_rejected_instead_of_blocking_the_queue() {
        // Pool of 2, held whole by job 1. Job 2 waits for 3 accelerators,
        // which no release can ever provide; job 3 waits for 1 behind it.
        let (mut sim, _fabric, mut cns, arm_ep) = setup(3, 2);
        spawn_arm(&sim, arm_ep, 2, 3);
        let (cn1, cn2, cn3) = (cns.remove(0), cns.remove(0), cns.remove(0));
        let h = sim.handle();
        {
            let h = h.clone();
            sim.spawn("job1", async move {
                let client = ArmClient::new(cn1, Rank(0));
                client.allocate(JobId(1), 2).await.unwrap();
                h.delay(SimDuration::from_millis(1)).await;
                client.release_job(JobId(1)).await;
            });
        }
        let oversized = {
            let h = h.clone();
            sim.spawn("job2", async move {
                h.delay(SimDuration::from_micros(10)).await;
                ArmClient::new(cn2, Rank(0))
                    .allocate_waiting(JobId(2), 3)
                    .await
            })
        };
        let small = sim.spawn("job3", async move {
            h.delay(SimDuration::from_micros(20)).await;
            let client = ArmClient::new(cn3, Rank(0));
            let grants = client.allocate_waiting(JobId(3), 1).await.unwrap();
            client.release_job(JobId(3)).await;
            client.shutdown().await;
            grants.len()
        });
        sim.run();
        assert_eq!(
            oversized.try_take(),
            Some(Err(ArmError::Rejected(
                crate::proto::RejectReason::TooLarge {
                    requested: 3,
                    pool: 2
                }
            )))
        );
        assert_eq!(small.try_take(), Some(1), "the waiter behind was wedged");
        // The ARM shut down: only the idle MPI progress engines remain.
        assert!(
            sim.pending_task_names()
                .iter()
                .all(|n| *n == "mpi.dispatcher"),
            "unexpected pending tasks: {:?}",
            sim.pending_task_names()
        );
    }

    #[test]
    fn allocate_and_submit_waiters_share_one_queue() {
        // One accelerator held by job 1; an `Allocate` waiter (job 2) and a
        // `SubmitJob` waiter (job 3) queue behind it.
        let (mut sim, fabric, mut cns, arm_ep) = setup(4, 1);
        let tele = dacc_telemetry::Telemetry::new(64);
        fabric.set_telemetry(tele.clone());
        spawn_arm(&sim, arm_ep, 1, 4);
        let log = Rc::new(RefCell::new(Vec::new()));
        let h = sim.handle();
        {
            let (cn, h) = (cns.remove(0), h.clone());
            sim.spawn("job1", async move {
                let client = ArmClient::new(cn, Rank(0));
                client.allocate(JobId(1), 1).await.unwrap();
                h.delay(SimDuration::from_millis(1)).await;
                client.release_job(JobId(1)).await;
            });
        }
        for (i, job) in [(0u64, 2u64), (1, 3)] {
            let (cn, h, log) = (cns.remove(0), h.clone(), Rc::clone(&log));
            sim.spawn("waiter", async move {
                h.delay(SimDuration::from_micros(10 * (i + 1))).await;
                let client = ArmClient::new(cn, Rank(0));
                let grants = if job == 2 {
                    client.allocate_waiting(JobId(job), 1).await
                } else {
                    client.submit_job(JobId(job), 5, 1, false, true).await
                };
                assert_eq!(grants.unwrap().len(), 1);
                log.borrow_mut().push((job, "granted", h.now()));
                h.delay(SimDuration::from_micros(100)).await;
                log.borrow_mut().push((job, "releasing", h.now()));
                client.release_job(JobId(job)).await;
                if job == 2 {
                    client.shutdown().await;
                }
            });
        }
        let queued = {
            let (cn, h) = (cns.remove(0), h.clone());
            sim.spawn("query", async move {
                h.delay(SimDuration::from_micros(500)).await;
                ArmClient::new(cn, Rank(0)).query().await.queued_requests
            })
        };
        sim.run();
        assert_eq!(queued.try_take(), Some(2), "both waiters in one queue");
        let log = log.borrow();
        let events: Vec<(u64, &str)> = log.iter().map(|&(j, e, _)| (j, e)).collect();
        // Fair-share order: job 1 already spent the `Allocate` tenant's
        // share, so tenant 5 goes first although job 2 arrived earlier.
        // One holder at a time: job 2 is granted only after job 3 released.
        assert_eq!(
            events,
            [
                (3, "granted"),
                (3, "releasing"),
                (2, "granted"),
                (2, "releasing")
            ]
        );
        assert!(log[0].2 >= SimTime::ZERO + SimDuration::from_millis(1));
        if cfg!(feature = "telemetry") {
            // Every grant — two `Allocate`s and one `SubmitJob` — went
            // through the scheduler.
            assert_eq!(tele.counter("arm.sched.grant"), 3);
        }
    }
}

#[cfg(test)]
mod sched_tests {
    use super::*;
    use crate::client::ArmClient;
    use crate::health::HealthConfig;
    use crate::proto::RejectReason;
    use crate::state::{inventory, Pool, ShareConfig};
    use dacc_fabric::mpi::Fabric;
    use dacc_fabric::topology::{FabricParams, NodeId, Topology};

    fn setup(n_cn: usize, n_ac: usize) -> (Sim, Fabric, Vec<Endpoint>, Endpoint) {
        let sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::new(&h, 1 + n_cn + n_ac, FabricParams::qdr_infiniband());
        let fabric = Fabric::new(&h, topo);
        let arm_ep = fabric.add_endpoint(NodeId(0));
        let cn_eps: Vec<Endpoint> = (0..n_cn)
            .map(|i| fabric.add_endpoint(NodeId(1 + i)))
            .collect();
        (sim, fabric, cn_eps, arm_ep)
    }

    fn make_pool(n_ac: usize, n_cn: usize, share: bool) -> Pool {
        let nodes: Vec<NodeId> = (0..n_ac).map(|i| NodeId(1 + n_cn + i)).collect();
        let ranks: Vec<Rank> = (0..n_ac).map(|i| Rank(1 + n_cn + i)).collect();
        let mut pool = Pool::new(inventory(&nodes, &ranks));
        if share {
            pool.set_health(HealthConfig::default());
            pool.set_share(ShareConfig::default());
        }
        pool
    }

    #[test]
    fn submit_rejected_by_tenant_quota() {
        let (mut sim, _fabric, mut cns, arm_ep) = setup(1, 4);
        let pool = make_pool(4, 1, false);
        sim.spawn("arm", async move {
            run_arm_server(arm_ep, pool, ArmServerConfig::default(), Tracer::disabled()).await;
        });
        let cn = cns.remove(0);
        let out = sim.spawn("cn", async move {
            let client = ArmClient::new(cn, Rank(0));
            client.set_tenant(7, 1, 0, 2, 8).await.unwrap();
            // Gang of 3 exceeds tenant 7's two-accelerator quota.
            let err = client
                .submit_job(JobId(1), 7, 3, false, false)
                .await
                .unwrap_err();
            // Within quota it lands.
            let grants = client
                .submit_job(JobId(2), 7, 2, false, false)
                .await
                .unwrap();
            client.release_job(JobId(2)).await;
            client.shutdown().await;
            (err, grants.len())
        });
        sim.run();
        assert_eq!(
            out.try_take(),
            Some((
                ArmError::Rejected(RejectReason::QuotaAccels {
                    requested: 3,
                    quota: 2
                }),
                2
            ))
        );
    }

    #[test]
    fn waiting_submit_granted_when_capacity_frees() {
        let (mut sim, _fabric, mut cns, arm_ep) = setup(2, 2);
        let pool = make_pool(2, 2, false);
        sim.spawn("arm", async move {
            run_arm_server(arm_ep, pool, ArmServerConfig::default(), Tracer::disabled()).await;
        });
        let cn_a = cns.remove(0);
        let cn_b = cns.remove(0);
        let h = sim.handle();
        {
            let h = h.clone();
            sim.spawn("job1", async move {
                let client = ArmClient::new(cn_a, Rank(0));
                client
                    .submit_job(JobId(1), 1, 2, false, false)
                    .await
                    .unwrap();
                h.delay(SimDuration::from_millis(1)).await;
                client.release_job(JobId(1)).await;
            });
        }
        let granted_at = {
            let h = h.clone();
            sim.spawn("job2", async move {
                h.delay(SimDuration::from_micros(10)).await;
                let client = ArmClient::new(cn_b, Rank(0));
                // Pool is full: queues, then granted after job 1 releases.
                let grants = client
                    .submit_job(JobId(2), 2, 2, false, true)
                    .await
                    .unwrap();
                assert_eq!(grants.len(), 2);
                let t = h.now();
                client.release_job(JobId(2)).await;
                client.shutdown().await;
                t
            })
        };
        sim.run();
        let t = granted_at.try_take().expect("job2 must complete");
        assert!(
            t >= SimTime::ZERO + SimDuration::from_millis(1),
            "granted at {t} before job 1 released"
        );
    }

    #[test]
    fn nonwaiting_submit_fails_fast_when_full() {
        let (mut sim, _fabric, mut cns, arm_ep) = setup(1, 1);
        let pool = make_pool(1, 1, false);
        sim.spawn("arm", async move {
            run_arm_server(arm_ep, pool, ArmServerConfig::default(), Tracer::disabled()).await;
        });
        let cn = cns.remove(0);
        let out = sim.spawn("cn", async move {
            let client = ArmClient::new(cn, Rank(0));
            client
                .submit_job(JobId(1), 1, 1, false, false)
                .await
                .unwrap();
            let err = client
                .submit_job(JobId(2), 2, 1, false, false)
                .await
                .unwrap_err();
            // The abandoned submission must not linger in the queue.
            let stats = client.query().await;
            client.shutdown().await;
            (err, stats.queued_requests)
        });
        sim.run();
        assert_eq!(
            out.try_take(),
            Some((
                ArmError::Insufficient {
                    requested: 1,
                    free: 0
                },
                0
            ))
        );
    }

    #[test]
    fn oversubscription_shares_one_accelerator() {
        let (mut sim, _fabric, mut cns, arm_ep) = setup(1, 1);
        let pool = make_pool(1, 1, true);
        sim.spawn("arm", async move {
            run_arm_server(arm_ep, pool, ArmServerConfig::default(), Tracer::disabled()).await;
        });
        let cn = cns.remove(0);
        let out = sim.spawn("cn", async move {
            let client = ArmClient::new(cn, Rank(0));
            // Job 1 consents to sharing and takes the only accelerator.
            let g1 = client
                .submit_job(JobId(1), 1, 1, true, false)
                .await
                .unwrap();
            // Job 2 lands on the same device via a share slot; its slice
            // starts immediately with a fresh epoch, fencing job 1.
            let g2 = client
                .submit_job(JobId(2), 2, 1, true, false)
                .await
                .unwrap();
            assert_eq!(g1[0].accel, g2[0].accel);
            assert!(g2[0].epoch > g1[0].epoch, "joiner must hold the live epoch");
            // A third job finds neither free capacity nor a spare slot.
            let err = client
                .submit_job(JobId(3), 3, 1, true, false)
                .await
                .unwrap_err();
            assert!(matches!(err, ArmError::Insufficient { .. }));
            client.release_job(JobId(2)).await;
            client.release_job(JobId(1)).await;
            let stats = client.query().await;
            client.shutdown().await;
            stats.free
        });
        sim.run();
        assert_eq!(out.try_take(), Some(1));
    }
}

#[cfg(test)]
mod repair_tests {
    use super::*;
    use crate::client::ArmClient;
    use crate::state::{inventory, AcceleratorId, Pool};
    use dacc_fabric::mpi::Fabric;
    use dacc_fabric::topology::{FabricParams, NodeId, Topology};

    #[test]
    fn repair_returns_accelerator_and_unblocks_queue() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let topo = Topology::new(&h, 3, FabricParams::qdr_infiniband());
        let fabric = Fabric::new(&h, topo);
        let arm_ep = fabric.add_endpoint(NodeId(0));
        let cn = fabric.add_endpoint(NodeId(1));
        let pool = Pool::new(inventory(&[NodeId(2)], &[Rank(2)]));
        sim.spawn("arm", async move {
            run_arm_server(arm_ep, pool, ArmServerConfig::default(), Tracer::disabled()).await;
        });
        let out = sim.spawn("cn", async move {
            let client = ArmClient::new(cn, Rank(0));
            // Break the only accelerator; allocation must fail.
            client.mark_broken(AcceleratorId(0)).await.unwrap();
            let err = client.allocate(JobId(1), 1).await.unwrap_err();
            assert!(matches!(err, ArmError::Insufficient { free: 0, .. }));
            // Repair it; allocation succeeds again.
            client.repair(AcceleratorId(0)).await.unwrap();
            let grants = client.allocate(JobId(1), 1).await.unwrap();
            assert_eq!(grants.len(), 1);
            client.release_job(JobId(1)).await;
            client.shutdown().await;
            grants.len()
        });
        sim.run();
        assert_eq!(out.try_take(), Some(1));
    }
}

#[cfg(test)]
mod ha_tests {
    use super::*;
    use crate::client::{ArmClient, ArmRetryConfig};
    use crate::state::{inventory, Pool};
    use dacc_fabric::mpi::Fabric;
    use dacc_fabric::topology::{FabricParams, NodeId, Topology};

    /// Nodes: 0 = primary ARM, 1..=n_cn compute, then n_ac accelerator
    /// nodes, then n_standby standby ARMs (appended last so the default
    /// single-ARM numbering is untouched).
    fn setup_ha(
        n_cn: usize,
        n_ac: usize,
        n_standby: usize,
    ) -> (Sim, Fabric, Vec<Endpoint>, Vec<Endpoint>, Vec<Rank>) {
        let sim = Sim::new();
        let h = sim.handle();
        let total = 1 + n_cn + n_ac + n_standby;
        let topo = Topology::new(&h, total, FabricParams::qdr_infiniband());
        let fabric = Fabric::new(&h, topo);
        // Endpoint creation order assigns ranks: ARM first (rank 0), then
        // compute nodes, then standbys on the trailing nodes.
        let mut arm_eps = vec![fabric.add_endpoint(NodeId(0))];
        let cn_eps: Vec<Endpoint> = (0..n_cn)
            .map(|i| fabric.add_endpoint(NodeId(1 + i)))
            .collect();
        for i in 0..n_standby {
            arm_eps.push(fabric.add_endpoint(NodeId(1 + n_cn + n_ac + i)));
        }
        let replicas: Vec<Rank> = arm_eps.iter().map(|ep| ep.rank()).collect();
        (sim, fabric, cn_eps, arm_eps, replicas)
    }

    fn test_pool(n_cn: usize, n_ac: usize) -> Pool {
        let nodes: Vec<NodeId> = (0..n_ac).map(|i| NodeId(1 + n_cn + i)).collect();
        let ranks: Vec<Rank> = (0..n_ac).map(|i| Rank(1 + n_cn + i)).collect();
        Pool::new(inventory(&nodes, &ranks))
    }

    #[allow(clippy::too_many_arguments)]
    fn spawn_replicas(
        sim: &Sim,
        arm_eps: Vec<Endpoint>,
        replicas: Vec<Rank>,
        n_cn: usize,
        n_ac: usize,
        ha: ArmHaConfig,
        fault: Option<Arc<dyn FaultHook>>,
        health: Option<crate::health::HealthConfig>,
    ) -> Vec<JoinHandle<Pool>> {
        let mut handles = Vec::new();
        for (position, ep) in arm_eps.into_iter().enumerate() {
            let mut pool = test_pool(n_cn, n_ac);
            if let Some(cfg) = health {
                pool.set_health(cfg);
            }
            let replica = ArmReplica {
                replicas: replicas.clone(),
                position,
            };
            let fault = fault.clone();
            let name = if position == 0 {
                "arm-primary"
            } else {
                "arm-standby"
            };
            handles.push(sim.spawn(name, async move {
                run_arm_server_ha(
                    ep,
                    pool,
                    ArmServerConfig::default(),
                    ha,
                    replica,
                    Tracer::disabled(),
                    fault,
                )
                .await
            }));
        }
        handles
    }

    fn fast_ha() -> ArmHaConfig {
        ArmHaConfig {
            beacon_period: SimDuration::from_micros(500),
            takeover_silence: SimDuration::from_millis(2),
            snapshot_every: 4,
            replay_cost: SimDuration::from_micros(1),
            park_after: 8,
        }
    }

    fn fast_retry() -> ArmRetryConfig {
        ArmRetryConfig {
            timeout: SimDuration::from_millis(3),
            attempts: 10,
            backoff: SimDuration::from_micros(200),
        }
    }

    /// Health plane with leases on but liveness judgement effectively
    /// disabled (no daemons beat in these unit tests).
    fn long_lease_health() -> crate::health::HealthConfig {
        crate::health::HealthConfig {
            suspect_after: SimDuration::from_secs(10),
            quarantine_after: SimDuration::from_secs(20),
            dead_after: SimDuration::from_secs(30),
            ..Default::default()
        }
    }

    /// Crash one fabric rank at a fixed virtual time.
    struct CrashAt {
        rank: usize,
        at: SimTime,
    }

    impl FaultHook for CrashAt {
        fn process_state(&self, process: usize, now: SimTime) -> ProcessFault {
            if process == self.rank && now >= self.at {
                ProcessFault::Crash
            } else {
                ProcessFault::Healthy
            }
        }
    }

    #[test]
    fn ha_replicated_cluster_serves_and_shuts_down_cleanly() {
        let (mut sim, _fabric, mut cns, arm_eps, replicas) = setup_ha(1, 3, 1);
        let handles = spawn_replicas(&sim, arm_eps, replicas.clone(), 1, 3, fast_ha(), None, None);
        let cn = cns.remove(0);
        let result = sim.spawn("cn", async move {
            let client = ArmClient::with_replicas(cn, replicas, fast_retry());
            let grants = client.allocate(JobId(1), 2).await.unwrap();
            assert_eq!(grants.len(), 2);
            let stats = client.query().await;
            assert_eq!((stats.free, stats.assigned), (1, 2));
            let released = client.release_job(JobId(1)).await;
            assert_eq!(released, 2);
            client.shutdown().await;
            stats.assigned
        });
        sim.run();
        assert_eq!(result.try_take(), Some(2));
        // The replicated Shutdown entry terminates the standby too.
        for h in handles {
            assert!(h.try_take().is_some(), "a replica never exited");
        }
    }

    #[test]
    fn ha_takeover_preserves_grants_and_serves_new_work() {
        let (mut sim, _fabric, mut cns, arm_eps, replicas) = setup_ha(1, 2, 1);
        let crash: Arc<dyn FaultHook> = Arc::new(CrashAt {
            rank: 0,
            at: SimTime::ZERO + SimDuration::from_millis(1),
        });
        let handles = spawn_replicas(
            &sim,
            arm_eps,
            replicas.clone(),
            1,
            2,
            fast_ha(),
            Some(crash),
            Some(long_lease_health()),
        );
        let standby = *replicas.last().unwrap();
        let cn = cns.remove(0);
        let h = sim.handle();
        let result = sim.spawn("cn", async move {
            let client = ArmClient::with_replicas(cn, replicas, fast_retry());
            // Grant taken while the original primary is alive.
            let before = client.allocate(JobId(1), 1).await.unwrap();
            assert_eq!(before.len(), 1);
            // Outlive the crash (1ms) and the takeover silence window.
            h.delay(SimDuration::from_millis(10)).await;
            // The replicated lease survives: no StaleEpoch, no re-grant.
            let renewed = client.renew_lease(JobId(1)).await.unwrap();
            assert_eq!(renewed, 1);
            // New work succeeds against the promoted standby.
            let after = client.allocate(JobId(2), 1).await.unwrap();
            assert_eq!(after.len(), 1);
            assert_ne!(before[0].accel, after[0].accel);
            let stats = client.query().await;
            assert_eq!((stats.free, stats.assigned), (0, 2));
            assert_eq!(client.arm_rank(), standby);
            client.release_job(JobId(1)).await;
            client.release_job(JobId(2)).await;
            client.shutdown().await;
        });
        sim.run();
        result.try_take().expect("client never finished");
        // Primary crashed; promoted standby exited on Shutdown with the
        // fully released pool.
        let pool = handles
            .into_iter()
            .nth(1)
            .unwrap()
            .try_take()
            .expect("standby never exited");
        assert_eq!(pool.stats().free, 2);
    }

    #[test]
    fn ha_waiting_allocation_survives_takeover() {
        let (mut sim, _fabric, mut cns, arm_eps, replicas) = setup_ha(2, 1, 1);
        let crash: Arc<dyn FaultHook> = Arc::new(CrashAt {
            rank: 0,
            at: SimTime::ZERO + SimDuration::from_millis(1),
        });
        let _handles = spawn_replicas(
            &sim,
            arm_eps,
            replicas.clone(),
            2,
            1,
            fast_ha(),
            Some(crash),
            None,
        );
        let cn_a = cns.remove(0);
        let cn_b = cns.remove(0);
        let h = sim.handle();
        {
            // Job 1 takes the only accelerator, holds it across the
            // crash, and releases against the promoted standby.
            let h = h.clone();
            let replicas = replicas.clone();
            sim.spawn("job1", async move {
                let client = ArmClient::with_replicas(cn_a, replicas, fast_retry());
                client.allocate(JobId(1), 1).await.unwrap();
                h.delay(SimDuration::from_millis(12)).await;
                client.release_job(JobId(1)).await;
            });
        }
        let granted = {
            // Job 2 queues behind job 1 before the crash; the queue entry
            // is replicated, so the promoted standby pushes the grant
            // once job 1 releases.
            let h = h.clone();
            sim.spawn("job2", async move {
                h.delay(SimDuration::from_micros(50)).await;
                let client = ArmClient::with_replicas(cn_b, replicas, fast_retry());
                let grants = client.allocate_waiting(JobId(2), 1).await.unwrap();
                let at = h.now();
                client.release_job(JobId(2)).await;
                client.shutdown().await;
                (grants.len(), at)
            })
        };
        sim.run();
        let (n, at) = granted.try_take().expect("waiter never granted");
        assert_eq!(n, 1);
        assert!(
            at >= SimTime::ZERO + SimDuration::from_millis(12),
            "granted at {at} before the holder released"
        );
    }

    #[test]
    fn ha_standby_bounces_clients_that_only_know_it() {
        let (mut sim, _fabric, mut cns, arm_eps, replicas) = setup_ha(1, 1, 1);
        let handles = spawn_replicas(&sim, arm_eps, replicas.clone(), 1, 1, fast_ha(), None, None);
        let standby = *replicas.last().unwrap();
        let cn = cns.remove(0);
        let result = sim.spawn("cn", async move {
            // Misconfigured client that only knows the standby: every
            // attempt bounces NotPrimary until the budget runs out.
            let lost = ArmClient::with_replicas(
                cn.clone(),
                vec![standby],
                ArmRetryConfig {
                    timeout: SimDuration::from_millis(1),
                    attempts: 3,
                    backoff: SimDuration::from_micros(100),
                },
            );
            let err = lost.allocate(JobId(1), 1).await.unwrap_err();
            // A correctly configured client still works afterwards.
            let client = ArmClient::with_replicas(cn, replicas, fast_retry());
            let grants = client.allocate(JobId(2), 1).await.unwrap();
            assert_eq!(grants.len(), 1);
            client.release_job(JobId(2)).await;
            client.shutdown().await;
            err
        });
        sim.run();
        assert_eq!(result.try_take(), Some(ArmError::Unreachable));
        for h in handles {
            assert!(h.try_take().is_some(), "a replica never exited");
        }
    }

    #[test]
    fn ha_idle_cluster_parks_and_sim_drains_without_shutdown() {
        let (mut sim, _fabric, mut cns, arm_eps, replicas) = setup_ha(1, 2, 1);
        let handles = spawn_replicas(&sim, arm_eps, replicas.clone(), 1, 2, fast_ha(), None, None);
        let cn = cns.remove(0);
        let result = sim.spawn("cn", async move {
            let client = ArmClient::with_replicas(cn, replicas, fast_retry());
            let grants = client.allocate(JobId(1), 1).await.unwrap();
            assert_eq!(grants.len(), 1);
            client.release_job(JobId(1)).await
        });
        // No shutdown: once the primary parks, no replica holds a timer
        // and the calendar drains. A regression here hangs the test.
        let outcome = sim.run();
        assert_eq!(result.try_take(), Some(1));
        for h in handles {
            // Replicas are parked in untimed receives, not exited.
            assert!(h.try_take().is_none());
        }
        assert!(
            outcome.time < SimTime::ZERO + SimDuration::from_secs(1),
            "parking should drain the calendar quickly, ran to {}",
            outcome.time
        );
    }

    #[test]
    fn ha_takeover_from_parked_standby_on_client_probe() {
        let (mut sim, _fabric, mut cns, arm_eps, replicas) = setup_ha(1, 2, 1);
        // Crash the primary long after it parked (~4ms idle with fast_ha).
        let crash: Arc<dyn FaultHook> = Arc::new(CrashAt {
            rank: 0,
            at: SimTime::ZERO + SimDuration::from_millis(20),
        });
        let _handles = spawn_replicas(
            &sim,
            arm_eps,
            replicas.clone(),
            1,
            2,
            fast_ha(),
            Some(crash),
            None,
        );
        let standby = *replicas.last().unwrap();
        let cn = cns.remove(0);
        let h = sim.handle();
        let result = sim.spawn("cn", async move {
            let client = ArmClient::with_replicas(cn, replicas, fast_retry());
            let grants = client.allocate(JobId(1), 1).await.unwrap();
            assert_eq!(grants.len(), 1);
            client.release_job(JobId(1)).await;
            // Go idle past the park threshold AND the crash, then come
            // back: the first probes bounce off the parked standby, which
            // re-arms its silence timer, promotes, and serves.
            h.delay(SimDuration::from_millis(30)).await;
            let grants = client.allocate(JobId(2), 1).await.unwrap();
            assert_eq!(grants.len(), 1);
            assert_eq!(client.arm_rank(), standby);
            client.release_job(JobId(2)).await;
            client.shutdown().await;
        });
        sim.run();
        result.try_take().expect("client never finished");
    }

    #[test]
    fn ha_duplicate_framed_request_is_deduped() {
        use crate::proto::frame_request;
        use dacc_fabric::codec::EncodeBuf;

        let (mut sim, _fabric, mut cns, arm_eps, replicas) = setup_ha(1, 2, 0);
        let handles = spawn_replicas(&sim, arm_eps, replicas, 1, 2, fast_ha(), None, None);
        let cn = cns.remove(0);
        let result = sim.spawn("cn", async move {
            let mut enc = EncodeBuf::new();
            let req = ArmRequest::Allocate {
                job: JobId(7),
                count: 1,
                wait: false,
            };
            let mut responses = Vec::new();
            for _ in 0..2 {
                let bytes = frame_request(9, &req, &mut enc);
                cn.send(Rank(0), arm_tags::REQUEST, Payload::from_bytes(bytes))
                    .await;
                let env = cn.recv(Some(Rank(0)), Some(arm_tags::RESPONSE)).await;
                let raw = env.payload.bytes().unwrap();
                let (rid, body) = crate::proto::peek_frame(raw).expect("framed response");
                assert_eq!(rid, 9);
                responses.push(ArmResponse::decode(body).unwrap());
            }
            // Replay, not re-execution: the duplicate returns the cached
            // grant and only one accelerator left the pool.
            assert_eq!(responses[0], responses[1]);
            assert!(matches!(responses[0], ArmResponse::Granted(ref g) if g.len() == 1));
            let client = ArmClient::new(cn, Rank(0));
            let stats = client.query().await;
            assert_eq!((stats.free, stats.assigned), (1, 1));
            client.shutdown().await;
        });
        sim.run();
        result.try_take().expect("client never finished");
        for h in handles {
            assert!(h.try_take().is_some(), "a replica never exited");
        }
    }
}
