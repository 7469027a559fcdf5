//! ARM wire protocol: a compact little-endian binary codec.
//!
//! Resource-management requests travel over the same interconnect as
//! everything else (the ARM is just another endpoint on the fabric), so
//! requests and responses are encoded to real bytes.

use crate::state::{AcceleratorId, JobId};
use bytes::{Bytes, BytesMut};
use dacc_fabric::codec::EncodeBuf;
use dacc_fabric::mpi::Rank;
use dacc_fabric::topology::NodeId;
pub use dacc_sched::RejectReason;

/// Reserved fabric tags for ARM traffic.
pub mod arm_tags {
    use dacc_fabric::mpi::Tag;
    /// Client → ARM requests.
    pub const REQUEST: Tag = Tag(0xFFFF_0010);
    /// ARM → client responses.
    pub const RESPONSE: Tag = Tag(0xFFFF_0011);
    /// ARM → client one-way events ([`crate::proto::Eviction`] notices).
    /// Separate from RESPONSE so an unsolicited event can never satisfy a
    /// pending request/response pair; clients poll it with `iprobe`.
    pub const EVENT: Tag = Tag(0xFFFF_0012);
    /// Primary ↔ standby replication traffic ([`crate::proto::ReplMsg`]):
    /// log entries, liveness beacons, snapshots, and catch-up requests.
    /// A dedicated tag so replication can never satisfy a client
    /// request/response pair (and vice versa).
    pub const REPL: Tag = Tag(0xFFFF_0013);
}

/// First byte of a *framed* ARM request or response (the retry/dedupe
/// path). Legacy unframed requests start with an opcode byte (currently
/// 0..=14) and legacy responses with a variant byte (0..=6), so the marker
/// can never be confused with either; a server that sees it strips the
/// frame header, and one that doesn't is never sent framed traffic.
pub const FRAME_MARKER: u8 = 0xA7;

/// Encode `req` as a framed request: marker byte, little-endian `op_id`,
/// then the standard request body. The `op_id` is the client's dedupe
/// identity for the operation — every retry of the same logical operation
/// carries the same id, and the server replays its cached response for an
/// id it has already executed instead of executing twice.
pub fn frame_request(op_id: u64, req: &ArmRequest, buf: &mut EncodeBuf) -> Bytes {
    {
        let mut w = Writer(buf.buf());
        w.u8(FRAME_MARKER);
        w.u64(op_id);
    }
    req.encode_into(buf)
}

/// Encode `resp` as a framed response echoing the request's `op_id` (the
/// client discards stale responses whose id does not match its in-flight
/// operation).
pub fn frame_response(op_id: u64, resp: &ArmResponse, buf: &mut EncodeBuf) -> Bytes {
    {
        let mut w = Writer(buf.buf());
        w.u8(FRAME_MARKER);
        w.u64(op_id);
    }
    resp.encode_into(buf)
}

/// Split a framed message into `(op_id, body)`. Returns `None` when the
/// bytes are not framed (legacy traffic) or the header is truncated.
pub fn peek_frame(bytes: &[u8]) -> Option<(u64, &[u8])> {
    if bytes.first() != Some(&FRAME_MARKER) {
        return None;
    }
    let id = bytes.get(1..9)?;
    Some((u64::from_le_bytes(id.try_into().ok()?), &bytes[9..]))
}

/// The scheduler tenant that [`ArmRequest::Allocate`] traffic runs under.
/// Tenant ids are otherwise chosen by `SubmitJob` clients; `SetTenant` on
/// this one gives untenanted traffic a weight, priority band or quota.
pub const DEFAULT_TENANT: u32 = u32::MAX;

/// A request to the accelerator resource manager.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ArmRequest {
    /// Allocate `count` accelerators for `job`: a scheduler job of
    /// [`DEFAULT_TENANT`] with a gang of `count` and no sharing, so
    /// `Allocate` waiters are granted in arrival order. `wait` queues the
    /// request until enough accelerators free up; otherwise insufficient
    /// capacity fails immediately with `Insufficient`. A `count` the whole
    /// pool could never hold is `Rejected` either way.
    Allocate {
        /// Requesting job.
        job: JobId,
        /// Number of accelerators wanted.
        count: u32,
        /// Queue instead of failing when short.
        wait: bool,
    },
    /// Release specific accelerators held by `job`.
    Release {
        /// Owning job.
        job: JobId,
        /// Accelerators to return.
        accels: Vec<AcceleratorId>,
    },
    /// Release everything held by `job` (automatic at job end, §III-C).
    ReleaseJob {
        /// Finished job.
        job: JobId,
    },
    /// Report an accelerator broken (operator/diagnostic action).
    MarkBroken {
        /// The failed accelerator.
        accel: AcceleratorId,
    },
    /// Query pool counters.
    Query,
    /// Return a repaired accelerator to service.
    Repair {
        /// The repaired accelerator.
        accel: AcceleratorId,
    },
    /// Stop the ARM server (orderly simulation tear-down).
    Shutdown,
    /// Failover report (§III-A): `accel` stopped answering `job`'s
    /// requests. The ARM marks it broken and, in the same round trip,
    /// grants the job one replacement accelerator if capacity allows.
    ReportFailure {
        /// The job that observed the failure.
        job: JobId,
        /// The unresponsive accelerator.
        accel: AcceleratorId,
    },
    /// Explicitly renew the leases on everything `job` holds. Traffic
    /// renews implicitly (daemon heartbeats carry a busy counter); this is
    /// the lightweight keep-alive for clients idle between phases.
    RenewLease {
        /// The job keeping its grants alive.
        job: JobId,
    },
    /// Daemon → ARM liveness beat for one accelerator. `fence` is the
    /// highest fence epoch the daemon has adopted (acks reclaim resets);
    /// `busy` counts ops executed since the previous beat (implicit lease
    /// renewal for the holding job).
    Heartbeat {
        /// The accelerator this daemon serves.
        accel: AcceleratorId,
        /// Highest fence epoch the daemon enforces.
        fence: u64,
        /// Ops executed since the last beat.
        busy: u32,
    },
    /// Migrate any holder off `accel` (maintenance/rebalance) and return
    /// it to the pool. The holder is evicted with a replacement grant and
    /// replays its command log there; no data is lost.
    Drain {
        /// The accelerator to vacate.
        accel: AcceleratorId,
    },
    /// Daemon → ARM result of a quarantine probe self-test.
    ProbeResult {
        /// The probed accelerator.
        accel: AcceleratorId,
        /// Whether the self-test passed.
        ok: bool,
    },
    /// Submit a job to the multi-tenant scheduler (the policy-aware
    /// successor of `Allocate`): admission control applies the tenant's
    /// quotas, dispatch follows weighted fair share, and the gang is
    /// granted all-or-nothing.
    SubmitJob {
        /// The submitting job.
        job: JobId,
        /// Accounting principal for fair share and quotas.
        tenant: u32,
        /// Accelerators required, granted atomically.
        gang: u32,
        /// The job tolerates a time-sliced share of one accelerator.
        share_ok: bool,
        /// Queue until dispatch (the response is `Queued`, then a second
        /// `Granted` message follows when the job starts). Without it an
        /// undispatchable job fails immediately with `Insufficient`.
        wait: bool,
    },
    /// Install or update a tenant's scheduling configuration.
    SetTenant {
        /// The tenant being configured.
        tenant: u32,
        /// Fair-share weight (relative share under contention).
        weight: u32,
        /// Priority band; higher bands dequeue strictly first.
        priority: u8,
        /// Max accelerators held concurrently (and largest gang).
        max_accels: u32,
        /// Max jobs queued at once.
        max_queued: u32,
    },
    /// [`ArmRequest::Heartbeat`] extended with the daemon's admission
    /// run-queue depth (the overload plane). A separate opcode so
    /// clusters that never enable queue feedback keep the legacy
    /// heartbeat bytes — and archived virtual-time baselines — intact.
    HeartbeatQ {
        /// The accelerator this daemon serves.
        accel: AcceleratorId,
        /// Highest fence epoch the daemon enforces.
        fence: u64,
        /// Ops executed since the last beat.
        busy: u32,
        /// Requests waiting in the daemon's admission run-queue.
        queue_depth: u32,
    },
}

/// A granted accelerator: everything a compute node needs to reach it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GrantedAccelerator {
    /// Accelerator identity.
    pub accel: AcceleratorId,
    /// Fabric rank of the accelerator's daemon.
    pub daemon_rank: Rank,
    /// Node the accelerator lives on.
    pub node: NodeId,
    /// Lease epoch of this assignment. Every op the client issues is
    /// stamped with it; after the ARM reclaims the accelerator, ops
    /// stamped with an older epoch are fenced by the daemon (zero means
    /// "unfenced" for legacy paths that predate the health plane).
    pub epoch: u64,
}

/// Pool counters returned by [`ArmRequest::Query`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PoolStats {
    /// Accelerators free for assignment.
    pub free: u32,
    /// Accelerators currently assigned.
    pub assigned: u32,
    /// Accelerators marked broken.
    pub broken: u32,
    /// Allocation requests (`Allocate` and `SubmitJob`) waiting in the
    /// scheduler's queue.
    pub queued_requests: u32,
}

/// A response from the accelerator resource manager.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ArmResponse {
    /// Allocation succeeded.
    Granted(Vec<GrantedAccelerator>),
    /// Release acknowledged (`released` = how many returned to the pool).
    Released {
        /// Accelerators returned to the free pool.
        released: u32,
    },
    /// Request failed.
    Error(ArmError),
    /// Pool counters.
    Stats(PoolStats),
    /// Lease renewal acknowledged (`renewed` = grants whose lease moved).
    Renewed {
        /// Number of held accelerators whose lease was extended.
        renewed: u32,
    },
    /// Heartbeat acknowledged. `fence` is the fence epoch the daemon must
    /// adopt (resetting its sessions if it rises); `probe` asks the daemon
    /// to run a self-test and report back with
    /// [`ArmRequest::ProbeResult`].
    HeartbeatAck {
        /// Fence epoch the daemon must enforce from now on.
        fence: u64,
        /// Run a quarantine probe self-test.
        probe: bool,
    },
    /// A waiting `SubmitJob`, or a framed waiting `Allocate`, was admitted
    /// and queued; a `Granted` message follows on the same response tag
    /// when the scheduler dispatches it.
    Queued {
        /// Jobs queued ahead of this one (all tenants) at admission time.
        position: u32,
    },
}

/// Why the ARM evicted a job from an accelerator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvictReason {
    /// The job's lease expired without renewal.
    LeaseExpired,
    /// The accelerator missed heartbeats and was quarantined.
    Quarantined,
    /// An operator drain request vacated the accelerator.
    Drained,
}

/// A one-way ARM → client eviction notice on [`arm_tags::EVENT`].
///
/// Sent *proactively* when the ARM takes an accelerator away from a
/// holding job (quarantine, drain, lease expiry) so the client can migrate
/// by command-log replay before its own request timeout would fire.
/// Carries the replacement grant (when capacity allowed) so migration
/// costs zero extra round trips.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Eviction {
    /// The accelerator being taken away.
    pub accel: AcceleratorId,
    /// The (now fenced) epoch of the evicted assignment.
    pub epoch: u64,
    /// Why the ARM revoked the assignment.
    pub reason: EvictReason,
    /// Pre-allocated replacement, if the pool had capacity.
    pub replacement: Option<GrantedAccelerator>,
}

impl Eviction {
    /// Encode to fresh wire bytes (see [`Eviction::encode_into`]).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_into(&mut EncodeBuf::new()).to_vec()
    }

    /// Encode into a reusable arena.
    pub fn encode_into(&self, buf: &mut EncodeBuf) -> Bytes {
        let mut w = Writer(buf.buf());
        self.encode_body(&mut w);
        buf.take()
    }

    fn encode_body(&self, w: &mut Writer<'_>) {
        w.u32(self.accel.0 as u32);
        w.u64(self.epoch);
        w.u8(match self.reason {
            EvictReason::LeaseExpired => 0,
            EvictReason::Quarantined => 1,
            EvictReason::Drained => 2,
        });
        match &self.replacement {
            None => w.u8(0),
            Some(g) => {
                w.u8(1);
                encode_grant(w, g);
            }
        }
    }

    /// Decode from wire bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, ArmError> {
        let mut r = Reader::new(buf);
        let ev = Self::decode_body(&mut r)?;
        r.finish()?;
        Ok(ev)
    }

    fn decode_body(r: &mut Reader) -> Result<Self, ArmError> {
        let accel = AcceleratorId(r.u32()? as usize);
        let epoch = r.u64()?;
        let reason = match r.u8()? {
            0 => EvictReason::LeaseExpired,
            1 => EvictReason::Quarantined,
            2 => EvictReason::Drained,
            _ => return Err(ArmError::Malformed),
        };
        let replacement = match r.u8()? {
            0 => None,
            1 => Some(decode_grant(r)?),
            _ => return Err(ArmError::Malformed),
        };
        Ok(Eviction {
            accel,
            epoch,
            reason,
            replacement,
        })
    }
}

/// A one-way ARM → client event on [`arm_tags::EVENT`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArmEvent {
    /// An accelerator was taken away (see [`Eviction`]).
    Evict(Eviction),
    /// A time-sliced accelerator rotated to this job: `grant` carries the
    /// fresh live epoch the job must stamp its ops with from now on (the
    /// previous epoch it held on this accelerator is fenced).
    Slice {
        /// The grant for the slice now starting.
        grant: GrantedAccelerator,
    },
}

impl ArmEvent {
    /// Encode to fresh wire bytes (see [`ArmEvent::encode_into`]).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_into(&mut EncodeBuf::new()).to_vec()
    }

    /// Encode into a reusable arena. The eviction body is written in
    /// place — no nested per-event allocation.
    pub fn encode_into(&self, buf: &mut EncodeBuf) -> Bytes {
        let mut w = Writer(buf.buf());
        match self {
            ArmEvent::Evict(ev) => {
                w.u8(0);
                ev.encode_body(&mut w);
            }
            ArmEvent::Slice { grant } => {
                w.u8(1);
                encode_grant(&mut w, grant);
            }
        }
        buf.take()
    }

    /// Decode from wire bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, ArmError> {
        let mut r = Reader::new(buf);
        let ev = match r.u8()? {
            0 => ArmEvent::Evict(Eviction::decode_body(&mut r)?),
            1 => ArmEvent::Slice {
                grant: decode_grant(&mut r)?,
            },
            _ => return Err(ArmError::Malformed),
        };
        r.finish()?;
        Ok(ev)
    }
}

/// One replicated operation in the primary's deterministic input log.
///
/// Replication ships the *input*, not the effect: the standby replays the
/// original request bytes through the same pure `Pool`/`Scheduler` logic
/// (with its sends suppressed) at the original timestamp, which
/// reconstructs the primary's state — including epochs, fences, leases,
/// and the response dedupe cache — bit for bit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReplEntry {
    /// Position in the replication log (0-based, gap-free).
    pub index: u64,
    /// The primary's clock when it processed the request (nanoseconds).
    pub now_ns: u64,
    /// Fabric rank the request arrived from.
    pub src: u32,
    /// Dedupe id when the request was framed (0 for legacy traffic).
    pub op_id: u64,
    /// The request body bytes exactly as received (unframed).
    pub frame: Vec<u8>,
}

/// Primary ↔ standby replication traffic on [`arm_tags::REPL`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReplMsg {
    /// One log entry, sent by the primary *before* it responds to the
    /// client (log-ahead), so any client-visible effect is already
    /// replicated when the response leaves.
    Entry(ReplEntry),
    /// Primary liveness beacon carrying the current log length; a standby
    /// that stops hearing these (and everything else) past its takeover
    /// silence threshold promotes itself.
    Beacon {
        /// Log entries written so far.
        index: u64,
    },
    /// Snapshot of the full server state at log position `index`: a
    /// catching-up standby installs it and discards buffered entries at or
    /// below `index`, bounding replay work regardless of log length.
    Snapshot {
        /// Log position the snapshot captures (entries 0..index applied).
        index: u64,
        /// Opaque state bytes (see `server::ServerSnapshot`).
        state: Vec<u8>,
    },
    /// Standby → primary: announce presence and request catch-up from
    /// `have` (the log position the standby already holds).
    Hello {
        /// First log index the standby is missing.
        have: u64,
    },
    /// Primary → standbys: the cluster is idle, stop expecting beacons.
    /// Both sides fall back to untimed receives (so a quiet simulation can
    /// drain its event calendar); the next client request or log entry
    /// re-arms the timers on whoever sees it.
    Park {
        /// Log entries written so far (lets a parked standby notice a gap
        /// on wake-up and Hello for catch-up).
        index: u64,
    },
}

impl ReplMsg {
    /// Encode to fresh wire bytes (see [`ReplMsg::encode_into`]).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_into(&mut EncodeBuf::new()).to_vec()
    }

    /// Encode into a reusable arena.
    pub fn encode_into(&self, buf: &mut EncodeBuf) -> Bytes {
        let mut w = Writer(buf.buf());
        match self {
            ReplMsg::Entry(e) => {
                w.u8(0);
                w.u64(e.index);
                w.u64(e.now_ns);
                w.u32(e.src);
                w.u64(e.op_id);
                w.u32(e.frame.len() as u32);
                w.0.extend_from_slice(&e.frame);
            }
            ReplMsg::Beacon { index } => {
                w.u8(1);
                w.u64(*index);
            }
            ReplMsg::Snapshot { index, state } => {
                w.u8(2);
                w.u64(*index);
                w.u32(state.len() as u32);
                w.0.extend_from_slice(state);
            }
            ReplMsg::Hello { have } => {
                w.u8(3);
                w.u64(*have);
            }
            ReplMsg::Park { index } => {
                w.u8(4);
                w.u64(*index);
            }
        }
        buf.take()
    }

    /// Decode from wire bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, ArmError> {
        let mut r = Reader::new(buf);
        let msg = match r.u8()? {
            0 => {
                let index = r.u64()?;
                let now_ns = r.u64()?;
                let src = r.u32()?;
                let op_id = r.u64()?;
                let len = r.u32()? as usize;
                ReplMsg::Entry(ReplEntry {
                    index,
                    now_ns,
                    src,
                    op_id,
                    frame: r.bytes(len)?.to_vec(),
                })
            }
            1 => ReplMsg::Beacon { index: r.u64()? },
            2 => {
                let index = r.u64()?;
                let len = r.u32()? as usize;
                ReplMsg::Snapshot {
                    index,
                    state: r.bytes(len)?.to_vec(),
                }
            }
            3 => ReplMsg::Hello { have: r.u64()? },
            4 => ReplMsg::Park { index: r.u64()? },
            _ => return Err(ArmError::Malformed),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// ARM-level failures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArmError {
    /// Not enough free accelerators (and the request did not ask to wait).
    Insufficient {
        /// Accelerators requested.
        requested: u32,
        /// Accelerators free at the time.
        free: u32,
    },
    /// Released an accelerator the job does not hold.
    NotHeld,
    /// Request referenced an unknown accelerator.
    UnknownAccelerator,
    /// The wire message could not be decoded.
    Malformed,
    /// A `SubmitJob` or `Allocate` was refused by admission control
    /// (quota or size); nothing was queued.
    Rejected(RejectReason),
    /// The receiving ARM replica is a standby, not the primary. The
    /// client should try the next replica (or wait for a takeover); the
    /// operation was not executed.
    NotPrimary,
    /// No ARM replica answered within the client's retry budget
    /// (client-side verdict; also encodable so proxies can forward it).
    Unreachable,
}

impl std::fmt::Display for ArmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArmError::Insufficient { requested, free } => {
                write!(
                    f,
                    "insufficient accelerators: requested {requested}, free {free}"
                )
            }
            ArmError::NotHeld => write!(f, "accelerator not held by this job"),
            ArmError::UnknownAccelerator => write!(f, "unknown accelerator"),
            ArmError::Malformed => write!(f, "malformed ARM message"),
            ArmError::Rejected(reason) => write!(f, "submission rejected: {reason}"),
            ArmError::NotPrimary => write!(f, "replica is a standby, not the primary"),
            ArmError::Unreachable => write!(f, "no ARM replica answered within the retry budget"),
        }
    }
}
impl std::error::Error for ArmError {}

// --- codec helpers ---

/// Wire writer over an [`EncodeBuf`] arena: ARM messages append to the
/// endpoint's pooled storage instead of allocating a `Vec` per message.
pub(crate) struct Writer<'a>(pub &'a mut BytesMut);

impl Writer<'_> {
    pub fn u8(&mut self, v: u8) {
        self.0.put_u8(v);
    }
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
}

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    pub fn u8(&mut self) -> Result<u8, ArmError> {
        let v = *self.buf.get(self.pos).ok_or(ArmError::Malformed)?;
        self.pos += 1;
        Ok(v)
    }
    pub fn u32(&mut self) -> Result<u32, ArmError> {
        let end = self.pos + 4;
        let s = self.buf.get(self.pos..end).ok_or(ArmError::Malformed)?;
        self.pos = end;
        Ok(u32::from_le_bytes(s.try_into().unwrap()))
    }
    pub fn u64(&mut self) -> Result<u64, ArmError> {
        let end = self.pos + 8;
        let s = self.buf.get(self.pos..end).ok_or(ArmError::Malformed)?;
        self.pos = end;
        Ok(u64::from_le_bytes(s.try_into().unwrap()))
    }
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ArmError> {
        let end = self.pos.checked_add(n).ok_or(ArmError::Malformed)?;
        let s = self.buf.get(self.pos..end).ok_or(ArmError::Malformed)?;
        self.pos = end;
        Ok(s)
    }
    pub fn finish(&self) -> Result<(), ArmError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ArmError::Malformed)
        }
    }
}

fn encode_grant(w: &mut Writer<'_>, g: &GrantedAccelerator) {
    w.u32(g.accel.0 as u32);
    w.u32(g.daemon_rank.0 as u32);
    w.u32(g.node.0 as u32);
    w.u64(g.epoch);
}

fn decode_grant(r: &mut Reader) -> Result<GrantedAccelerator, ArmError> {
    Ok(GrantedAccelerator {
        accel: AcceleratorId(r.u32()? as usize),
        daemon_rank: Rank(r.u32()? as usize),
        node: NodeId(r.u32()? as usize),
        epoch: r.u64()?,
    })
}

impl ArmRequest {
    /// Encode to fresh wire bytes (see [`ArmRequest::encode_into`]).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_into(&mut EncodeBuf::new()).to_vec()
    }

    /// Encode into a reusable arena.
    pub fn encode_into(&self, buf: &mut EncodeBuf) -> Bytes {
        let mut w = Writer(buf.buf());
        match self {
            ArmRequest::Allocate { job, count, wait } => {
                w.u8(0);
                w.u64(job.0);
                w.u32(*count);
                w.u8(u8::from(*wait));
            }
            ArmRequest::Release { job, accels } => {
                w.u8(1);
                w.u64(job.0);
                w.u32(accels.len() as u32);
                for a in accels {
                    w.u32(a.0 as u32);
                }
            }
            ArmRequest::ReleaseJob { job } => {
                w.u8(2);
                w.u64(job.0);
            }
            ArmRequest::MarkBroken { accel } => {
                w.u8(3);
                w.u32(accel.0 as u32);
            }
            ArmRequest::Query => w.u8(4),
            ArmRequest::Shutdown => w.u8(5),
            ArmRequest::Repair { accel } => {
                w.u8(6);
                w.u32(accel.0 as u32);
            }
            ArmRequest::ReportFailure { job, accel } => {
                w.u8(7);
                w.u64(job.0);
                w.u32(accel.0 as u32);
            }
            ArmRequest::RenewLease { job } => {
                w.u8(8);
                w.u64(job.0);
            }
            ArmRequest::Heartbeat { accel, fence, busy } => {
                w.u8(9);
                w.u32(accel.0 as u32);
                w.u64(*fence);
                w.u32(*busy);
            }
            ArmRequest::Drain { accel } => {
                w.u8(10);
                w.u32(accel.0 as u32);
            }
            ArmRequest::ProbeResult { accel, ok } => {
                w.u8(11);
                w.u32(accel.0 as u32);
                w.u8(u8::from(*ok));
            }
            ArmRequest::SubmitJob {
                job,
                tenant,
                gang,
                share_ok,
                wait,
            } => {
                w.u8(12);
                w.u64(job.0);
                w.u32(*tenant);
                w.u32(*gang);
                w.u8(u8::from(*share_ok));
                w.u8(u8::from(*wait));
            }
            ArmRequest::SetTenant {
                tenant,
                weight,
                priority,
                max_accels,
                max_queued,
            } => {
                w.u8(13);
                w.u32(*tenant);
                w.u32(*weight);
                w.u8(*priority);
                w.u32(*max_accels);
                w.u32(*max_queued);
            }
            ArmRequest::HeartbeatQ {
                accel,
                fence,
                busy,
                queue_depth,
            } => {
                w.u8(14);
                w.u32(accel.0 as u32);
                w.u64(*fence);
                w.u32(*busy);
                w.u32(*queue_depth);
            }
        }
        buf.take()
    }

    /// Decode from wire bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, ArmError> {
        let mut r = Reader::new(buf);
        let req = match r.u8()? {
            0 => ArmRequest::Allocate {
                job: JobId(r.u64()?),
                count: r.u32()?,
                wait: r.u8()? != 0,
            },
            1 => {
                let job = JobId(r.u64()?);
                let n = r.u32()?;
                let mut accels = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    accels.push(AcceleratorId(r.u32()? as usize));
                }
                ArmRequest::Release { job, accels }
            }
            2 => ArmRequest::ReleaseJob {
                job: JobId(r.u64()?),
            },
            3 => ArmRequest::MarkBroken {
                accel: AcceleratorId(r.u32()? as usize),
            },
            4 => ArmRequest::Query,
            5 => ArmRequest::Shutdown,
            6 => ArmRequest::Repair {
                accel: AcceleratorId(r.u32()? as usize),
            },
            7 => ArmRequest::ReportFailure {
                job: JobId(r.u64()?),
                accel: AcceleratorId(r.u32()? as usize),
            },
            8 => ArmRequest::RenewLease {
                job: JobId(r.u64()?),
            },
            9 => ArmRequest::Heartbeat {
                accel: AcceleratorId(r.u32()? as usize),
                fence: r.u64()?,
                busy: r.u32()?,
            },
            10 => ArmRequest::Drain {
                accel: AcceleratorId(r.u32()? as usize),
            },
            11 => ArmRequest::ProbeResult {
                accel: AcceleratorId(r.u32()? as usize),
                ok: r.u8()? != 0,
            },
            12 => ArmRequest::SubmitJob {
                job: JobId(r.u64()?),
                tenant: r.u32()?,
                gang: r.u32()?,
                share_ok: r.u8()? != 0,
                wait: r.u8()? != 0,
            },
            13 => ArmRequest::SetTenant {
                tenant: r.u32()?,
                weight: r.u32()?,
                priority: r.u8()?,
                max_accels: r.u32()?,
                max_queued: r.u32()?,
            },
            14 => ArmRequest::HeartbeatQ {
                accel: AcceleratorId(r.u32()? as usize),
                fence: r.u64()?,
                busy: r.u32()?,
                queue_depth: r.u32()?,
            },
            _ => return Err(ArmError::Malformed),
        };
        r.finish()?;
        Ok(req)
    }
}

impl ArmResponse {
    /// Encode to fresh wire bytes (see [`ArmResponse::encode_into`]).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_into(&mut EncodeBuf::new()).to_vec()
    }

    /// Encode into a reusable arena.
    pub fn encode_into(&self, buf: &mut EncodeBuf) -> Bytes {
        let mut w = Writer(buf.buf());
        match self {
            ArmResponse::Granted(grants) => {
                w.u8(0);
                w.u32(grants.len() as u32);
                for g in grants {
                    encode_grant(&mut w, g);
                }
            }
            ArmResponse::Released { released } => {
                w.u8(1);
                w.u32(*released);
            }
            ArmResponse::Error(e) => {
                w.u8(2);
                match e {
                    ArmError::Insufficient { requested, free } => {
                        w.u8(0);
                        w.u32(*requested);
                        w.u32(*free);
                    }
                    ArmError::NotHeld => w.u8(1),
                    ArmError::UnknownAccelerator => w.u8(2),
                    ArmError::Malformed => w.u8(3),
                    ArmError::Rejected(reason) => {
                        w.u8(4);
                        let (kind, a, b) = match reason {
                            RejectReason::TooLarge { requested, pool } => (0, *requested, *pool),
                            RejectReason::QuotaAccels { requested, quota } => {
                                (1, *requested, *quota)
                            }
                            RejectReason::QuotaQueue { depth, quota } => (2, *depth, *quota),
                        };
                        w.u8(kind);
                        w.u32(a);
                        w.u32(b);
                    }
                    ArmError::NotPrimary => w.u8(5),
                    ArmError::Unreachable => w.u8(6),
                }
            }
            ArmResponse::Stats(s) => {
                w.u8(3);
                w.u32(s.free);
                w.u32(s.assigned);
                w.u32(s.broken);
                w.u32(s.queued_requests);
            }
            ArmResponse::Renewed { renewed } => {
                w.u8(4);
                w.u32(*renewed);
            }
            ArmResponse::HeartbeatAck { fence, probe } => {
                w.u8(5);
                w.u64(*fence);
                w.u8(u8::from(*probe));
            }
            ArmResponse::Queued { position } => {
                w.u8(6);
                w.u32(*position);
            }
        }
        buf.take()
    }

    /// Decode from wire bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, ArmError> {
        let mut r = Reader::new(buf);
        let resp = match r.u8()? {
            0 => {
                let n = r.u32()?;
                let mut grants = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    grants.push(decode_grant(&mut r)?);
                }
                ArmResponse::Granted(grants)
            }
            1 => ArmResponse::Released { released: r.u32()? },
            2 => ArmResponse::Error(match r.u8()? {
                0 => ArmError::Insufficient {
                    requested: r.u32()?,
                    free: r.u32()?,
                },
                1 => ArmError::NotHeld,
                2 => ArmError::UnknownAccelerator,
                3 => ArmError::Malformed,
                4 => {
                    let kind = r.u8()?;
                    let a = r.u32()?;
                    let b = r.u32()?;
                    ArmError::Rejected(match kind {
                        0 => RejectReason::TooLarge {
                            requested: a,
                            pool: b,
                        },
                        1 => RejectReason::QuotaAccels {
                            requested: a,
                            quota: b,
                        },
                        2 => RejectReason::QuotaQueue { depth: a, quota: b },
                        _ => return Err(ArmError::Malformed),
                    })
                }
                5 => ArmError::NotPrimary,
                6 => ArmError::Unreachable,
                _ => return Err(ArmError::Malformed),
            }),
            3 => ArmResponse::Stats(PoolStats {
                free: r.u32()?,
                assigned: r.u32()?,
                broken: r.u32()?,
                queued_requests: r.u32()?,
            }),
            4 => ArmResponse::Renewed { renewed: r.u32()? },
            5 => ArmResponse::HeartbeatAck {
                fence: r.u64()?,
                probe: r.u8()? != 0,
            },
            6 => ArmResponse::Queued { position: r.u32()? },
            _ => return Err(ArmError::Malformed),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: ArmRequest) {
        assert_eq!(ArmRequest::decode(&req.encode()), Ok(req));
    }

    fn roundtrip_resp(resp: ArmResponse) {
        assert_eq!(ArmResponse::decode(&resp.encode()), Ok(resp));
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(ArmRequest::Allocate {
            job: JobId(42),
            count: 3,
            wait: true,
        });
        roundtrip_req(ArmRequest::Release {
            job: JobId(1),
            accels: vec![AcceleratorId(0), AcceleratorId(7)],
        });
        roundtrip_req(ArmRequest::ReleaseJob { job: JobId(9) });
        roundtrip_req(ArmRequest::MarkBroken {
            accel: AcceleratorId(2),
        });
        roundtrip_req(ArmRequest::Query);
        roundtrip_req(ArmRequest::Shutdown);
        roundtrip_req(ArmRequest::Repair {
            accel: AcceleratorId(1),
        });
        roundtrip_req(ArmRequest::ReportFailure {
            job: JobId(7),
            accel: AcceleratorId(3),
        });
        roundtrip_req(ArmRequest::RenewLease { job: JobId(11) });
        roundtrip_req(ArmRequest::Heartbeat {
            accel: AcceleratorId(2),
            fence: 5,
            busy: 17,
        });
        roundtrip_req(ArmRequest::Drain {
            accel: AcceleratorId(6),
        });
        roundtrip_req(ArmRequest::ProbeResult {
            accel: AcceleratorId(4),
            ok: true,
        });
        roundtrip_req(ArmRequest::SubmitJob {
            job: JobId(77),
            tenant: 3,
            gang: 4,
            share_ok: true,
            wait: false,
        });
        roundtrip_req(ArmRequest::SetTenant {
            tenant: 9,
            weight: 5,
            priority: 2,
            max_accels: 16,
            max_queued: 8,
        });
        roundtrip_req(ArmRequest::HeartbeatQ {
            accel: AcceleratorId(3),
            fence: 8,
            busy: 21,
            queue_depth: 12,
        });
    }

    #[test]
    fn scheduler_responses_roundtrip() {
        roundtrip_resp(ArmResponse::Queued { position: 4 });
        roundtrip_resp(ArmResponse::Error(ArmError::Rejected(
            RejectReason::TooLarge {
                requested: 9,
                pool: 4,
            },
        )));
        roundtrip_resp(ArmResponse::Error(ArmError::Rejected(
            RejectReason::QuotaAccels {
                requested: 5,
                quota: 2,
            },
        )));
        roundtrip_resp(ArmResponse::Error(ArmError::Rejected(
            RejectReason::QuotaQueue { depth: 7, quota: 7 },
        )));
    }

    #[test]
    fn arm_events_roundtrip() {
        for ev in [
            ArmEvent::Evict(Eviction {
                accel: AcceleratorId(3),
                epoch: 4,
                reason: EvictReason::LeaseExpired,
                replacement: None,
            }),
            ArmEvent::Slice {
                grant: GrantedAccelerator {
                    accel: AcceleratorId(2),
                    daemon_rank: Rank(8),
                    node: NodeId(4),
                    epoch: 21,
                },
            },
        ] {
            assert_eq!(ArmEvent::decode(&ev.encode()), Ok(ev));
        }
        assert_eq!(ArmEvent::decode(&[9]), Err(ArmError::Malformed));
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(ArmResponse::Granted(vec![GrantedAccelerator {
            accel: AcceleratorId(1),
            daemon_rank: Rank(5),
            node: NodeId(3),
            epoch: 9,
        }]));
        roundtrip_resp(ArmResponse::Released { released: 2 });
        roundtrip_resp(ArmResponse::Error(ArmError::Insufficient {
            requested: 4,
            free: 1,
        }));
        roundtrip_resp(ArmResponse::Error(ArmError::NotHeld));
        roundtrip_resp(ArmResponse::Stats(PoolStats {
            free: 1,
            assigned: 2,
            broken: 3,
            queued_requests: 4,
        }));
        roundtrip_resp(ArmResponse::Renewed { renewed: 3 });
        roundtrip_resp(ArmResponse::HeartbeatAck {
            fence: 7,
            probe: true,
        });
    }

    #[test]
    fn evictions_roundtrip() {
        for ev in [
            Eviction {
                accel: AcceleratorId(3),
                epoch: 4,
                reason: EvictReason::LeaseExpired,
                replacement: None,
            },
            Eviction {
                accel: AcceleratorId(0),
                epoch: 12,
                reason: EvictReason::Quarantined,
                replacement: Some(GrantedAccelerator {
                    accel: AcceleratorId(1),
                    daemon_rank: Rank(5),
                    node: NodeId(3),
                    epoch: 13,
                }),
            },
            Eviction {
                accel: AcceleratorId(7),
                epoch: 1,
                reason: EvictReason::Drained,
                replacement: None,
            },
        ] {
            assert_eq!(Eviction::decode(&ev.encode()), Ok(ev));
        }
        let mut bytes = Eviction {
            accel: AcceleratorId(3),
            epoch: 4,
            reason: EvictReason::LeaseExpired,
            replacement: None,
        }
        .encode();
        bytes.push(0);
        assert_eq!(Eviction::decode(&bytes), Err(ArmError::Malformed));
    }

    #[test]
    fn ha_error_variants_roundtrip() {
        roundtrip_resp(ArmResponse::Error(ArmError::NotPrimary));
        roundtrip_resp(ArmResponse::Error(ArmError::Unreachable));
    }

    #[test]
    fn repl_messages_roundtrip() {
        for msg in [
            ReplMsg::Entry(ReplEntry {
                index: 7,
                now_ns: 123_456,
                src: 3,
                op_id: 99,
                frame: ArmRequest::Allocate {
                    job: JobId(1),
                    count: 2,
                    wait: true,
                }
                .encode(),
            }),
            ReplMsg::Beacon { index: 41 },
            ReplMsg::Snapshot {
                index: 12,
                state: vec![1, 2, 3, 4, 5],
            },
            ReplMsg::Hello { have: 0 },
        ] {
            assert_eq!(ReplMsg::decode(&msg.encode()), Ok(msg.clone()));
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert_eq!(
                    ReplMsg::decode(&bytes[..cut]),
                    Err(ArmError::Malformed),
                    "cut at {cut}"
                );
            }
        }
        assert_eq!(ReplMsg::decode(&[9]), Err(ArmError::Malformed));
    }

    #[test]
    fn framed_requests_strip_to_legacy_bytes() {
        let req = ArmRequest::Allocate {
            job: JobId(5),
            count: 1,
            wait: false,
        };
        let framed = frame_request(42, &req, &mut EncodeBuf::new());
        let (op_id, body) = peek_frame(&framed).expect("framed");
        assert_eq!(op_id, 42);
        assert_eq!(ArmRequest::decode(body), Ok(req.clone()));
        // Legacy bytes are not mistaken for a frame.
        assert_eq!(peek_frame(&req.encode()), None);
        // A truncated frame header is not a frame either.
        assert_eq!(peek_frame(&[FRAME_MARKER, 1, 2]), None);

        let resp = ArmResponse::Granted(vec![]);
        let framed = frame_response(42, &resp, &mut EncodeBuf::new());
        let (op_id, body) = peek_frame(&framed).expect("framed");
        assert_eq!(op_id, 42);
        assert_eq!(ArmResponse::decode(body), Ok(resp));
    }

    #[test]
    fn truncated_input_is_malformed() {
        let bytes = ArmRequest::Allocate {
            job: JobId(1),
            count: 1,
            wait: false,
        }
        .encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                ArmRequest::decode(&bytes[..cut]),
                Err(ArmError::Malformed),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_malformed() {
        let mut bytes = ArmRequest::Query.encode();
        bytes.push(0xAA);
        assert_eq!(ArmRequest::decode(&bytes), Err(ArmError::Malformed));
    }

    #[test]
    fn unknown_opcode_is_malformed() {
        assert_eq!(ArmRequest::decode(&[99]), Err(ArmError::Malformed));
        assert_eq!(ArmResponse::decode(&[99]), Err(ArmError::Malformed));
    }
}
