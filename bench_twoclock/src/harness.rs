//! Run loop, cluster set-up shared by the workloads, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dacc_arm::state::AllocPolicy;
use dacc_fabric::topology::{FabricParams, TopologySpec};
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_telemetry::Telemetry;
use dacc_vgpu::device::GpuCounters;
use dacc_vgpu::params::{ExecMode, GpuParams};

use crate::rep::{self, Rep};
use crate::stats::median;
use crate::trace::{Call, Span, Trace};

/// The metrics of the result line, by name and unit, as `BENCHMARK.json`
/// lists them. Every workload reports every one of them: an untraced run
/// the end-to-end ones, a traced run the per-layer ones. A metric that
/// applies to one workload only (its virtual-time results, per-call
/// percentiles) is printed on a line of its own instead.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("host_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_ok_ratio", "ratio"),
];

pub const PER_LAYER: [(&str, &str); 27] = [
    ("sim.events", "count"),
    ("sim.events_per_op", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.virt_digest_ok", "bool"),
    ("sim.minor_faults", "count"),
    ("telemetry.host_share", "ratio"),
    ("telemetry.dropped_spans", "count"),
    ("telemetry.minor_fault_delta", "count"),
    ("fabric.msgs_per_op", "count"),
    ("fabric.wire_bytes_per_payload_byte", "B/B"),
    ("fabric.crc_bytes_per_payload_byte", "B/B"),
    ("fabric.send.virt_busy_ms", "ms"),
    ("core.daemon.requests_per_op", "count"),
    ("core.daemon.decode.virt_busy_ms", "ms"),
    ("core.daemon.execute.virt_busy_ms", "ms"),
    ("core.daemon.host_buffer_peak_mib", "MiB"),
    ("vgpu.dma.virt_busy_ms", "ms"),
    ("vgpu.kernels", "count"),
    ("arm.submit.virt_busy_ms", "ms"),
    ("arm.queue_depth.max", "count"),
    ("arm.requests_per_job", "count"),
    ("sched.grants", "count"),
    ("sched.grant_wait.virt_busy_ms", "ms"),
    ("linalg.qr.virt_busy_s", "s"),
    ("setup.build_cluster_ms", "ms"),
    ("setup.inputs_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

/// Command-line arguments (the benchmark reads no environment variable).
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Set in a child process: what it runs (see [`RepKind`]).
    pub rep: Option<RepKind>,
}

/// What a child process runs: one rep (`--rep <traced><telemetry>`, each
/// 0 or 1), or one rep stepped from stdin (`--rep step<traced><telemetry>`).
#[derive(Clone, Copy, Debug)]
pub enum RepKind {
    Single(Mode),
    Stepped(Mode),
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut rep = None;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value:?}: {e}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?.clamp(1, 60)),
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                },
                "--rep" => {
                    let (stepped, mode) = match value.strip_prefix("step") {
                        Some(m) => (true, m),
                        None => (false, value.as_str()),
                    };
                    let mode = rep::parse_mode(mode).ok_or(format!("--rep {value:?}"))?;
                    rep = Some(if stepped {
                        RepKind::Stepped(mode)
                    } else {
                        RepKind::Single(mode)
                    });
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        if rep.is_some() {
            (seconds, trace) = (Some(0), Some(false));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            rep,
        })
    }
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

pub fn metric(name: impl Into<String>, unit: &str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit: unit.to_owned(),
        value,
    }
}

/// How one rep runs: with the benchmark's host-clock spans or not, and
/// with the telemetry plane attached or not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Mode {
    pub traced: bool,
    pub telemetry: bool,
}

/// What a workload reports about one rep after its simulation ended.
#[derive(Default)]
pub struct Collected {
    /// Operations attempted and operations whose output checked out.
    pub attempted: u64,
    pub ok: u64,
    /// Failed checks; any entry fails the run.
    pub problems: Vec<String>,
    /// End-to-end virtual-time metrics (identical in every rep).
    pub virtual_metrics: Vec<Metric>,
    /// Per-layer metrics this rep could measure.
    pub layers: Vec<Metric>,
    /// Lines printed beside the metrics (sample counts, configuration).
    pub notes: Vec<String>,
}

/// Running count of one rep's operations, kept by the simulated tasks.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Record a failed check (the first few are kept for the report).
    pub fn fail(&mut self, problem: String) {
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        for p in other.problems {
            self.fail(p);
        }
    }

    /// Fold into `c`. A rep whose tasks never finished attempted
    /// `planned` operations all the same: they count as failed.
    pub fn into_collected(self, c: &mut Collected, planned: u64) {
        c.attempted = self.attempted.max(planned);
        c.ok = self.ok;
        c.problems.extend(self.problems);
    }
}

/// `len` pseudo-random bytes from `(seed, label)` (SplitMix64).
pub fn seeded_bytes(seed: u64, label: &str, len: usize) -> Vec<u8> {
    let mut state = seed;
    for b in label.bytes() {
        state = (state ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// One workload: seeded inputs, warm-up, staging onto a fresh simulation,
/// and the checks and metrics read back once it ran.
pub trait Workload {
    /// Whether the end-to-end runs attach the telemetry plane.
    const TELEMETRY: bool;
    /// How strongly the workload's host time moves with the calibration
    /// job's (see [`CALIBRATION_REF_S`]) as the shared machine speeds up
    /// and slows down: the slope of log run-median host time over log
    /// run-median job time, measured over runs of many seeds and rounded
    /// to a quarter. `setup_s` and `host_s` are scaled by the job's
    /// reference time over its measured time, raised to this power.
    const CALIBRATION_EXPONENT: f64;
    type Inputs: Clone;
    type Staged;

    /// Configuration printed at the start of every run.
    fn describe() -> String;
    fn inputs(seed: u64) -> Self::Inputs;
    fn warm_up(inputs: &Self::Inputs) -> Result<(), String>;
    /// Build the cluster on `sim` and spawn the work; nothing runs yet.
    fn stage(sim: &Sim, inputs: Self::Inputs, trace: &Trace, tele: &Telemetry) -> Self::Staged;
    /// Check and measure a rep once `sim` ran to its end.
    fn collect(staged: Self::Staged, sim: &Sim, trace: Trace, tele: &Telemetry) -> Collected;
}

/// The cluster every workload builds on, with every setting given here so
/// no environment variable can change it: one switch, no ARM replicas, no
/// health plane, no sharing.
pub fn cluster_spec(compute_nodes: usize, accelerators: usize, mode: ExecMode) -> ClusterSpec {
    ClusterSpec {
        compute_nodes,
        accelerators,
        local_gpus: false,
        fabric: FabricParams::qdr_infiniband(),
        topology: TopologySpec::SingleSwitch,
        gpu: GpuParams::tesla_c1060(),
        mode,
        daemon: DaemonConfig::default(),
        frontend: FrontendConfig::default(),
        alloc_policy: AllocPolicy::FirstFit,
        health: None,
        share: None,
        arm_ha: None,
    }
}

pub fn describe_spec(spec: &ClusterSpec) -> String {
    format!(
        "compute_nodes={} accelerators={} mode={:?} topology={:?} arm_ha={} health={} share={}",
        spec.compute_nodes,
        spec.accelerators,
        spec.mode,
        spec.topology,
        if spec.arm_ha.is_some() { "on" } else { "none" },
        if spec.health.is_some() { "on" } else { "none" },
        if spec.share.is_some() { "on" } else { "none" },
    )
}

/// After `sim.run()`: every task must have ended but the fabric's
/// per-endpoint dispatchers, which wait on their mailboxes for good. That
/// requires a clean shutdown of the ARM and of every daemon, so a silent
/// hang cannot pass. Returns the daemons' stats.
pub fn check_clean_end(
    cluster: &Cluster,
    sim: &Sim,
    problems: &mut Vec<String>,
) -> Vec<DaemonStats> {
    let blocked = sim.pending_task_names();
    let others: Vec<&str> = blocked
        .iter()
        .copied()
        .filter(|n| *n != "mpi.dispatcher")
        .collect();
    if !others.is_empty() || blocked.len() != cluster.fabric.endpoint_count() {
        problems.push(format!(
            "tasks still blocked when the simulation ended: {others:?} and {} of {} dispatchers",
            blocked.len() - others.len(),
            cluster.fabric.endpoint_count()
        ));
    }
    if cluster.arm_handle.try_take().is_none() {
        problems.push("the ARM server did not shut down".into());
    }
    cluster
        .daemon_handles
        .iter()
        .enumerate()
        .filter_map(|(i, h)| {
            let stats = h.try_take();
            if stats.is_none() {
                problems.push(format!("daemon {i} did not shut down"));
            }
            stats
        })
        .collect()
}

const MIB: f64 = (1u64 << 20) as f64;

/// Deepest ARM wait queue: acquire calls begun but not yet granted.
fn max_queue_depth(spans: &[Span]) -> u64 {
    let mut edges: Vec<(SimTime, i64)> = spans
        .iter()
        .filter(|s| s.call == Call::Acquire && s.virt_end > s.virt_start)
        .flat_map(|s| [(s.virt_start, 1), (s.virt_end, -1)])
        .collect();
    // At equal times a grant leaves the queue before a submit joins it.
    edges.sort_unstable();
    let (mut depth, mut max) = (0i64, 0i64);
    for (_, d) in edges {
        depth += d;
        max = max.max(depth);
    }
    max as u64
}

/// Total virtual time of the benchmark's spans around `call`.
fn span_virt(spans: &[Span], call: Call) -> SimDuration {
    spans
        .iter()
        .filter(|s| s.call == call)
        .map(Span::virt)
        .fold(SimDuration::ZERO, |a, b| a + b)
}

/// Per-layer metrics every workload reads the same way: from the
/// benchmark's spans around the ARM and linalg calls, from daemon and
/// device counters, and from telemetry counters when it is attached. A
/// layer the workload does not enter reads 0.
pub fn program_layers(
    cluster: &Cluster,
    daemons: &[DaemonStats],
    tele: &Telemetry,
    spans: &[Span],
    ops: u64,
    jobs: u64,
) -> Vec<Metric> {
    let ops = ops.max(1) as f64;
    let gpus: Vec<GpuCounters> = cluster.accel_gpus.iter().map(|g| g.counters()).collect();
    let payload: u64 = gpus.iter().map(|c| c.h2d_bytes + c.d2h_bytes).sum();
    let mut out = vec![
        metric(
            "core.daemon.requests_per_op",
            "count",
            daemons.iter().map(|d| d.requests).sum::<u64>() as f64 / ops,
        ),
        metric(
            "core.daemon.host_buffer_peak_mib",
            "MiB",
            daemons
                .iter()
                .map(|d| d.host_buffer_peak)
                .max()
                .unwrap_or(0) as f64
                / MIB,
        ),
        metric(
            "vgpu.kernels",
            "count",
            gpus.iter().map(|c| c.kernels).sum::<u64>() as f64,
        ),
        metric(
            "arm.submit.virt_busy_ms",
            "ms",
            span_virt(spans, Call::Acquire).as_nanos() as f64 / 1e6,
        ),
        metric(
            "arm.queue_depth.max",
            "count",
            max_queue_depth(spans) as f64,
        ),
        metric(
            "linalg.qr.virt_busy_s",
            "s",
            span_virt(spans, Call::Qr).as_secs_f64(),
        ),
    ];
    if !tele.is_enabled() {
        return out;
    }
    let busy: BTreeMap<&str, u64> = tele
        .span_stats()
        .into_iter()
        .map(|(name, s)| (name, s.busy_ns))
        .collect();
    let busy_ms = |cat: &str| busy.get(cat).copied().unwrap_or(0) as f64 / 1e6;
    let per_payload = |n: u64| {
        if payload == 0 {
            0.0
        } else {
            n as f64 / payload as f64
        }
    };
    out.extend([
        metric(
            "fabric.msgs_per_op",
            "count",
            tele.counter("fabric.send.msgs") as f64 / ops,
        ),
        metric(
            "fabric.wire_bytes_per_payload_byte",
            "B/B",
            per_payload(tele.counter("fabric.send.bytes")),
        ),
        metric(
            "fabric.crc_bytes_per_payload_byte",
            "B/B",
            per_payload(tele.counter("wire.crc_bytes")),
        ),
        metric("fabric.send.virt_busy_ms", "ms", busy_ms("fabric.send")),
        metric(
            "core.daemon.decode.virt_busy_ms",
            "ms",
            busy_ms("daemon.decode"),
        ),
        metric(
            "core.daemon.execute.virt_busy_ms",
            "ms",
            busy_ms("daemon.execute"),
        ),
        metric("vgpu.dma.virt_busy_ms", "ms", busy_ms("daemon.dma")),
        metric(
            "telemetry.dropped_spans",
            "count",
            tele.dropped_spans() as f64,
        ),
        metric(
            "arm.requests_per_job",
            "count",
            tele.histogram("arm.client.rtt").map_or(0, |h| h.count()) as f64 / jobs.max(1) as f64,
        ),
        // Only scheduled acquires pass the fair-share scheduler.
        metric(
            "sched.grants",
            "count",
            tele.counter("arm.sched.grant") as f64,
        ),
        metric(
            "sched.grant_wait.virt_busy_ms",
            "ms",
            tele.histogram("arm.sched.grant_latency")
                .map_or(0.0, |h| h.mean_ns() * h.count() as f64 / 1e6),
        ),
    ]);
    out
}

/// Entry point for one workload: a whole run, or (in the child process
/// a run starts for each rep) a single rep printed for the parent.
pub fn main<W: Workload>(args: &Args) -> ExitCode {
    match args.rep {
        Some(RepKind::Single(mode)) => {
            print!("{}", rep::measure::<W>(args.seed, mode).encode());
            return ExitCode::SUCCESS;
        }
        Some(RepKind::Stepped(mode)) => {
            return match rep::serve_stepped::<W>(args.seed, mode) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        None => {}
    }
    let report = run::<W>(args);
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The outcome of one run, ready to print.
struct Report {
    lines: Vec<String>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Reps of each kind a run makes before the clock may stop it.
const MIN_REPS: usize = 3;

/// CPU seconds the calibration job (`rep::calibrate`, run twice per rep)
/// takes on a 2.1 GHz x86-64 core with no other load. It only sets the
/// scale of a workload's `setup_s` and `host_s`.
const CALIBRATION_REF_S: f64 = 0.085;

fn run<W: Workload>(args: &Args) -> Report {
    let mut lines = vec![format!(
        "config: workload={} seed={} seconds={} trace={} telemetry={} host_clock=calibrated^{} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if W::TELEMETRY { "attached" } else { "detached" },
        W::CALIBRATION_EXPONENT,
        W::describe()
    )];
    let plain = Mode {
        traced: false,
        telemetry: W::TELEMETRY,
    };
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    // An end-to-end run repeats untraced reps. A traced run makes one
    // unsliced traced rep (its spans give per-call host times), whose
    // virtual end time slices the trios that follow.
    let first_mode = Mode {
        traced: args.trace,
        telemetry: W::TELEMETRY,
    };
    let mut reps: Vec<Rep> = vec![rep::spawn(&args.workload, args.seed, first_mode)];
    let mut trios = 0;
    loop {
        let enough = if args.trace {
            trios >= MIN_REPS
        } else {
            reps.len() >= MIN_REPS
        };
        if enough && start.elapsed() >= budget {
            break;
        }
        if args.trace {
            let end_ns = reps[0].end_ns;
            reps.extend(rep::spawn_trio(
                &args.workload,
                args.seed,
                W::TELEMETRY,
                end_ns,
            ));
            trios += 1;
        } else {
            reps.push(rep::spawn(&args.workload, args.seed, plain));
        }
    }
    for (i, rep) in reps.iter().enumerate() {
        lines.push(format!(
            "rep {i:>3} traced={} telemetry={}: setup {:.4} s, host {:.4} s \
             (process wall {:.4} s, calib {:.4} s), peak rss {:.1} MiB, {} events, {} ops, \
             virtual digest {:016x}",
            u8::from(rep.mode.traced),
            u8::from(rep.mode.telemetry),
            rep.setup_s,
            rep.host_s,
            rep.wall_s,
            rep.calib_s,
            rep.rss_mib,
            rep.events,
            rep.attempted,
            rep.digest
        ));
    }

    let mut problems = Vec::new();
    let first = &reps[0];
    for r in &reps {
        for p in &r.problems {
            if !problems.contains(p) {
                problems.push(p.clone());
            }
        }
    }
    if reps.iter().any(|r| {
        r.events != first.events || !same_metrics(&r.virtual_metrics, &first.virtual_metrics)
    }) {
        problems.push("virtual results differ between reps of one seed".into());
    }
    let digests_equal = reps.iter().all(|r| r.digest == first.digest);
    if !digests_equal {
        problems.push("virtual span digest differs between reps".into());
    }
    lines.extend(first.notes.iter().cloned());

    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let ok: u64 = reps.iter().map(|r| r.ok).sum();
    let med = |pick: &dyn Fn(&Rep) -> Option<f64>| -> f64 {
        let v: Vec<f64> = reps.iter().filter_map(pick).collect();
        median(&v)
    };
    let plain_host = med(&|r| (!r.mode.traced).then_some(r.host_s));
    // End-to-end host times are scaled to a reference machine speed: the
    // CPU time of a fixed job run just before and after each rep tracks
    // how fast the (shared) machine runs. Drift is slow, so the run's
    // median host time is scaled by its median calibration time.
    let metrics = if !args.trace {
        let speed = (CALIBRATION_REF_S / med(&|r| Some(r.calib_s))).powf(W::CALIBRATION_EXPONENT);
        vec![
            metric("setup_s", "s", med(&|r| Some(r.setup_s)) * speed),
            metric("host_s", "s", plain_host * speed),
            metric("peak_rss_mb", "MiB", med(&|r| Some(r.rss_mib))),
            metric("ops_ok_ratio", "ratio", ok as f64 / attempted.max(1) as f64),
        ]
    } else {
        // Host-time ratios compare the simulations of one trio, which ran
        // interleaved, and take the median over trios.
        let trio_reps = &reps[1..];
        let host = |t: &[Rep], traced: bool, telemetry: bool| {
            let mode = Mode { traced, telemetry };
            let rep = t.iter().find(|x| x.mode == mode);
            rep.expect("every trio runs every mode").host_s
        };
        let share: Vec<f64> = trio_reps
            .chunks(3)
            .map(|t| (host(t, true, true) - host(t, true, false)) / host(t, true, true))
            .collect();
        let faults = |t: &[Rep], telemetry: bool| {
            let mode = Mode {
                traced: true,
                telemetry,
            };
            let rep = t.iter().find(|x| x.mode == mode);
            rep.expect("every trio runs every mode").faults as f64
        };
        let fault_delta: Vec<f64> = trio_reps
            .chunks(3)
            .map(|t| faults(t, true) - faults(t, false))
            .collect();
        let overhead: Vec<f64> = trio_reps
            .chunks(3)
            .map(|t| host(t, true, W::TELEMETRY) / host(t, false, W::TELEMETRY) - 1.0)
            .collect();
        lines.push(format!(
            "virtual digest {:016x} with telemetry attached and detached: {}",
            first.digest,
            if digests_equal {
                "identical"
            } else {
                "DIFFERENT"
            }
        ));
        let mut m = vec![
            metric("sim.events", "count", first.events as f64),
            metric(
                "sim.events_per_op",
                "count",
                first.events as f64 / first.attempted.max(1) as f64,
            ),
            metric(
                "sim.host_ns_per_event",
                "ns",
                plain_host * 1e9 / first.events.max(1) as f64,
            ),
            metric(
                "sim.virt_digest_ok",
                "bool",
                f64::from(u8::from(digests_equal)),
            ),
            metric("sim.minor_faults", "count", first.faults as f64),
            metric("telemetry.host_share", "ratio", median(&share)),
            metric("telemetry.minor_fault_delta", "count", median(&fault_delta)),
            metric("bench.trace_overhead", "ratio", median(&overhead)),
            metric("setup.build_cluster_ms", "ms", first.build_s * 1e3),
            metric("setup.inputs_ms", "ms", first.inputs_s * 1e3),
        ];
        m.extend(merge_layers(&reps));
        m
    };
    for x in first.virtual_metrics.iter().chain(&metrics) {
        if !x.value.is_finite() {
            problems.push(format!("metric {} is not finite", x.name));
        }
    }
    // The workload's own virtual-time results, and per-layer metrics that
    // apply to this workload only, go on lines of their own.
    for x in &first.virtual_metrics {
        lines.push(format!("virtual {} = {} {}", x.name, x.value, x.unit));
    }
    let manifest: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let (mut metrics, own): (Vec<Metric>, Vec<Metric>) = metrics
        .into_iter()
        .partition(|m| manifest.iter().any(|(name, _)| *name == m.name));
    for x in &own {
        lines.push(format!("layer {} = {} {}", x.name, x.value, x.unit));
    }
    let position = |m: &Metric| manifest.iter().position(|(name, _)| *name == m.name);
    metrics.sort_by_key(position);
    for (name, unit) in manifest {
        match metrics.iter().find(|m| m.name == *name) {
            Some(m) if m.unit == *unit => {}
            Some(m) => problems.push(format!("metric {name} in {}, not {unit}", m.unit)),
            None => problems.push(format!("metric {name} was not measured")),
        }
    }
    Report {
        lines,
        problems,
        attempted,
        failed: attempted - ok.min(attempted),
        metrics,
    }
}

/// Per-layer metrics of a traced run: those of its unsliced traced rep
/// (the only one whose per-call host times are its own), then, for names
/// it lacks (telemetry counters of a workload that runs detached), the
/// median over the trios' traced reps.
fn merge_layers(reps: &[Rep]) -> Vec<Metric> {
    let mut out = reps[0].layers.clone();
    let mut extra: Vec<(String, String, Vec<f64>)> = Vec::new();
    for m in reps[1..]
        .iter()
        .filter(|r| r.mode.traced)
        .flat_map(|r| &r.layers)
    {
        if out.iter().any(|o| o.name == m.name) {
            continue;
        }
        match extra.iter_mut().find(|(n, _, _)| *n == m.name) {
            Some((_, _, v)) => v.push(m.value),
            None => extra.push((m.name.clone(), m.unit.clone(), vec![m.value])),
        }
    }
    out.extend(
        extra
            .into_iter()
            .map(|(name, unit, v)| metric(name, &unit, median(&v))),
    );
    out
}

fn same_metrics(a: &[Metric], b: &[Metric]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.name == y.name && x.value.to_bits() == y.value.to_bits())
}

impl Report {
    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn print(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        for m in &self.metrics {
            println!("metric {} = {} {}", m.name, m.value, m.unit);
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}
