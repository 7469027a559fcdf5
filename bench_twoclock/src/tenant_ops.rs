//! `tenant_ops`: multi-tenant small-op traffic, the event-dense control
//! plane (ARM scheduler, daemon, small frames, executor wakes). Functional
//! mode, telemetry detached.
//!
//! Compute nodes of three tenants with unequal weights receive jobs on a
//! seeded open-loop schedule in virtual time. Each job acquires one
//! accelerator through the ARM scheduler (waiting if none is free), runs
//! rounds of alloc / H2D / fused launch / D2H / free on 4-64 KiB of real
//! bytes, and finishes. A compute node runs its jobs one at a time, so a
//! job that arrives while its node is busy waits, and that wait counts in
//! its latency. The offered load is below the pool's capacity but high
//! enough that jobs queue at the ARM.

use std::rc::Rc;

use dacc_arm::state::JobId;
use dacc_fabric::mpi::{Endpoint, Rank};
use dacc_fabric::payload::Payload;
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_telemetry::Telemetry;
use dacc_vgpu::kernel::{register_builtin_kernels, KernelArg, KernelRegistry, LaunchConfig};
use dacc_vgpu::params::ExecMode;

use crate::harness::{
    check_clean_end, cluster_spec, describe_spec, metric, program_layers, seeded_bytes, Collected,
    Metric, Tally, Workload,
};
use crate::stats::{quantile, Quantile, P50, P99, P999};
use crate::trace::{Call, Span, Trace};

const COMPUTE_NODES: usize = 8;
const ACCELERATORS: usize = 4;
/// Fair-share weight of each tenant; compute node `i` belongs to tenant
/// `i % TENANTS`.
const WEIGHTS: [u32; 3] = [4, 2, 1];
const TENANTS: usize = WEIGHTS.len();
const JOBS_PER_NODE: usize = 600;
/// Jobs per node in the warm-up.
const WARM_JOBS: usize = 4;
const MAX_ROUNDS: usize = 4;
const MIN_LEN: f64 = (4u64 << 10) as f64;
const MAX_LEN: f64 = (64u64 << 10) as f64;
/// Mean gap between a node's job arrivals, drawn uniformly from half to
/// one and a half times this. Jobs hold an accelerator for ~0.29 ms on
/// average, so eight nodes offer about 70% of the pool's capacity.
const MEAN_GAP_US: f64 = 800.0;
/// First arrivals come after the tenant set-up has reached the ARM.
const ARRIVALS_FROM: SimDuration = SimDuration::from_millis(1);
/// Seeded f64 values every op's bytes are a window of.
const POOL_VALUES: usize = 1 << 20;

pub struct TenantOps;

#[derive(Clone)]
struct Job {
    id: u64,
    due: SimTime,
    tenant: u32,
    /// `(offset, len)` in bytes within the pool, one per round.
    rounds: Vec<(u64, u64)>,
}

/// Shared inputs: the byte pool and its doubled image (the expected
/// readback of the `daxpy` kernel run with x = y and alpha = 1).
#[derive(Clone)]
struct Pool {
    input: Payload,
    expected: Rc<Vec<u8>>,
}

#[derive(Clone)]
pub struct Inputs {
    pool: Pool,
    /// Jobs per compute node, in arrival order.
    jobs: Vec<Vec<Job>>,
}

/// A finished job's virtual times: due, started (its node was free),
/// granted an accelerator, released it, and acknowledged.
struct JobTimes {
    due: SimTime,
    start: SimTime,
    granted: SimTime,
    released: SimTime,
    end: SimTime,
}

type NodeOut = (Tally, Vec<JobTimes>);

pub struct Staged {
    cluster: Cluster,
    planned_ops: u64,
    jobs: usize,
    out: JoinHandle<(Vec<NodeOut>, SimTime)>,
}

fn registry() -> KernelRegistry {
    let reg = KernelRegistry::new();
    register_builtin_kernels(&reg);
    reg
}

/// One round: alloc, H2D, fused `daxpy` launch doubling the buffer, D2H
/// checked against the doubled input, free.
async fn round(
    trace: &Trace,
    ac: &RemoteAccelerator,
    pool: &Pool,
    off: u64,
    len: u64,
    t: &mut Tally,
) {
    t.attempted += 5;
    let ptr = match trace.span(Call::MemAlloc, 0, ac.mem_alloc(len)).await {
        Ok(p) => p,
        Err(e) => return t.fail(format!("mem_alloc({len}): {e}")),
    };
    t.ok += 1;
    let sent = pool.input.slice(off, len);
    match trace.span(Call::H2d, len, ac.mem_cpy_h2d(&sent, ptr)).await {
        Ok(()) => t.ok += 1,
        Err(e) => t.fail(format!("h2d of {len} B: {e}")),
    }
    let n = len / 8;
    let args = [
        KernelArg::Ptr(ptr),
        KernelArg::Ptr(ptr),
        KernelArg::U64(n),
        KernelArg::F64(1.0),
    ];
    let grid = LaunchConfig::linear(n.div_ceil(256) as u32, 256);
    match trace
        .span(Call::Launch, 0, ac.launch("daxpy", grid, &args))
        .await
    {
        Ok(()) => t.ok += 1,
        Err(e) => t.fail(format!("launch daxpy on {n} values: {e}")),
    }
    let want = &pool.expected[off as usize..(off + len) as usize];
    match trace.span(Call::D2h, len, ac.mem_cpy_d2h(ptr, len)).await {
        Ok(back) if back.to_bytes().as_ref() == want => t.ok += 1,
        Ok(_) => t.fail(format!("readback of {len} B is not the doubled input")),
        Err(e) => t.fail(format!("d2h of {len} B: {e}")),
    }
    match trace.span(Call::MemFree, 0, ac.mem_free(ptr)).await {
        Ok(()) => t.ok += 1,
        Err(e) => t.fail(format!("mem_free: {e}")),
    }
}

/// A compute node running its jobs in arrival order.
async fn node(
    trace: Trace,
    ep: Endpoint,
    arm: Rank,
    frontend: FrontendConfig,
    pool: Pool,
    jobs: Vec<Job>,
) -> NodeOut {
    let mut tally = Tally::default();
    let mut times = Vec::with_capacity(jobs.len());
    for job in jobs {
        if trace.now() < job.due {
            trace.handle().delay_until(job.due).await;
        }
        let start = trace.now();
        let proc = AcProcess::new(ep.clone(), arm, JobId(job.id), frontend);
        let acquire = proc.acquire_scheduled(job.tenant, 1, false, true);
        tally.attempted += 2;
        let granted = match trace.span(Call::Acquire, 0, acquire).await {
            Ok(accels) => {
                tally.ok += 1;
                let granted = trace.now();
                for &(off, len) in &job.rounds {
                    round(&trace, &accels[0], &pool, off, len, &mut tally).await;
                }
                granted
            }
            Err(e) => {
                tally.fail(format!("job {}: acquire_scheduled: {e}", job.id));
                trace.now()
            }
        };
        let released = trace.now();
        trace.span(Call::Finish, 0, proc.finish()).await;
        tally.ok += 1;
        times.push(JobTimes {
            due: job.due,
            start,
            granted,
            released,
            end: trace.now(),
        });
    }
    (tally, times)
}

fn stage_jobs(sim: &Sim, inputs: Inputs, trace: &Trace, tele: &Telemetry) -> Staged {
    let mut cluster = build_cluster(
        sim,
        cluster_spec(COMPUTE_NODES, ACCELERATORS, ExecMode::Functional),
        registry(),
    );
    if tele.is_enabled() {
        cluster.set_telemetry(tele.clone());
    }
    let (arm, frontend) = (cluster.arm_rank, cluster.spec.frontend);
    let planned_ops = inputs
        .jobs
        .iter()
        .flatten()
        .map(|j| 2 + 5 * j.rounds.len() as u64)
        .sum();
    let jobs = inputs.jobs.iter().map(Vec::len).sum();
    let admin = cluster.cn_endpoints[0].clone();
    let daemons: Vec<RemoteAccelerator> = (0..ACCELERATORS)
        .map(|i| RemoteAccelerator::new(admin.clone(), cluster.daemon_rank(i), frontend))
        .collect();
    let mut nodes = Vec::with_capacity(COMPUTE_NODES);
    for (ep, jobs) in cluster.cn_endpoints.drain(..).zip(inputs.jobs) {
        let task = node(trace.clone(), ep, arm, frontend, inputs.pool.clone(), jobs);
        nodes.push(task);
    }
    // Tenant set-up, then every node's arrivals, then the shutdown of the
    // daemons and the ARM once the last job finished.
    let trace = trace.clone();
    let handle = sim.handle();
    let out = sim.spawn("tenant_ops", async move {
        let proc = AcProcess::new(admin, arm, JobId(0), frontend);
        let mut setup = Tally::default();
        for (t, &w) in WEIGHTS.iter().enumerate() {
            let max_queued = COMPUTE_NODES as u32;
            let arm = proc.arm();
            if let Err(e) = arm
                .set_tenant(t as u32, w, 0, ACCELERATORS as u32, max_queued)
                .await
            {
                setup.fail(format!("set_tenant({t}) refused: {e}"));
            }
        }
        let configured = trace.now();
        let handles: Vec<_> = nodes
            .into_iter()
            .map(|n| handle.spawn("compute_node", n))
            .collect();
        let mut outs = vec![(setup, Vec::new())];
        for h in handles {
            outs.push(h.await);
        }
        for d in &daemons {
            let _ = d.shutdown().await;
        }
        proc.arm().shutdown().await;
        (outs, configured)
    });
    Staged {
        cluster,
        planned_ops,
        jobs,
        out,
    }
}

/// Exact percentile of `sorted` in `unit_ns` units, or a failed check.
fn pct(
    name: &str,
    sorted: &[u64],
    q: Quantile,
    unit_ns: f64,
    problems: &mut Vec<String>,
) -> Option<f64> {
    let v = quantile(sorted, q);
    if v.is_none() {
        problems.push(format!(
            "{name}: {} samples are too few for an exact percentile",
            sorted.len()
        ));
    }
    v.map(|ns| ns as f64 / unit_ns)
}

/// Sorted virtual durations of the spans whose call `keep` accepts.
fn durations_ns(spans: &[Span], keep: impl Fn(Call) -> bool) -> Vec<u64> {
    let mut v: Vec<u64> = spans
        .iter()
        .filter(|s| keep(s.call))
        .map(|s| s.virt().as_nanos())
        .collect();
    v.sort_unstable();
    v
}

impl Workload for TenantOps {
    const TELEMETRY: bool = false;
    /// Executor, allocator and map work, like the calibration job, plus
    /// small byte copies: measured slope 0.79 over 20 runs.
    const CALIBRATION_EXPONENT: f64 = 0.75;
    type Inputs = Inputs;
    type Staged = Staged;

    fn describe() -> String {
        format!(
            "{} tenants={TENANTS} weights={WEIGHTS:?} jobs_per_node={JOBS_PER_NODE} \
             mean_gap_us={MEAN_GAP_US} rounds=1..={MAX_ROUNDS} sizes=log-uniform[4KiB,64KiB]",
            describe_spec(&cluster_spec(
                COMPUTE_NODES,
                ACCELERATORS,
                ExecMode::Functional
            ))
        )
    }

    fn inputs(seed: u64) -> Inputs {
        let bytes = seeded_bytes(seed, "tenant_pool", POOL_VALUES * 8);
        // Small whole numbers, so doubling them is exact.
        let values: Vec<f64> = bytes
            .chunks_exact(8)
            .map(|c| (u64::from_le_bytes(c.try_into().expect("8 bytes")) >> 44) as f64)
            .collect();
        let input: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let expected: Vec<u8> = values
            .iter()
            .flat_map(|v| (2.0 * v).to_le_bytes())
            .collect();
        let pool = Pool {
            input: Payload::from_vec(input),
            expected: Rc::new(expected),
        };
        let (lo, hi) = (MIN_LEN.ln(), MAX_LEN.ln());
        let jobs = (0..COMPUTE_NODES)
            .map(|n| {
                let mut rng = SimRng::derive(seed, &format!("tenant_node_{n}"));
                let mut due = SimTime::ZERO + ARRIVALS_FROM;
                (0..JOBS_PER_NODE)
                    .map(|j| {
                        let gap_us = MEAN_GAP_US * rng.uniform_range(0.5, 1.5);
                        due += SimDuration::from_secs_f64(gap_us * 1e-6);
                        let rounds = (0..1 + rng.index(MAX_ROUNDS))
                            .map(|_| {
                                let len = (rng.uniform_range(lo, hi).exp() as u64)
                                    .clamp(8, MAX_LEN as u64)
                                    & !7;
                                let off =
                                    8 * rng.index(POOL_VALUES - (len / 8) as usize + 1) as u64;
                                (off, len)
                            })
                            .collect();
                        Job {
                            id: (n * JOBS_PER_NODE + j + 1) as u64,
                            due,
                            tenant: (n % TENANTS) as u32,
                            rounds,
                        }
                    })
                    .collect()
            })
            .collect();
        Inputs { pool, jobs }
    }

    fn warm_up(inputs: &Inputs) -> Result<(), String> {
        let mut sim = Sim::new();
        let warm = Inputs {
            pool: inputs.pool.clone(),
            jobs: inputs
                .jobs
                .iter()
                .map(|j| j[..WARM_JOBS].to_vec())
                .collect(),
        };
        let trace = Trace::new(sim.handle(), false, 1024);
        let staged = stage_jobs(&sim, warm, &trace, &Telemetry::disabled());
        sim.run();
        let mut c = Collected::default();
        check_clean_end(&staged.cluster, &sim, &mut c.problems);
        let mut tally = Tally::default();
        for (t, _) in staged.out.try_take().map(|o| o.0).unwrap_or_default() {
            tally.merge(t);
        }
        tally.into_collected(&mut c, staged.planned_ops);
        if c.problems.is_empty() && c.ok == c.attempted {
            Ok(())
        } else {
            Err(format!(
                "{} of {} ops ok; {}",
                c.ok,
                c.attempted,
                c.problems.join("; ")
            ))
        }
    }

    fn stage(sim: &Sim, inputs: Inputs, trace: &Trace, tele: &Telemetry) -> Staged {
        stage_jobs(sim, inputs, trace, tele)
    }

    fn collect(staged: Staged, sim: &Sim, trace: Trace, tele: &Telemetry) -> Collected {
        let mut c = Collected::default();
        let daemons = check_clean_end(&staged.cluster, sim, &mut c.problems);
        let (outs, configured) = staged.out.try_take().unwrap_or_default();
        let mut tally = Tally::default();
        let mut jobs = Vec::with_capacity(staged.jobs);
        for (t, times) in outs {
            tally.merge(t);
            jobs.extend(times);
        }
        tally.into_collected(&mut c, staged.planned_ops);
        if jobs.len() != staged.jobs {
            c.problems
                .push(format!("{} of {} jobs finished", jobs.len(), staged.jobs));
        }
        if configured > SimTime::ZERO + ARRIVALS_FROM {
            c.problems
                .push("tenant set-up ended after the first arrival".into());
        }

        let spans = trace.spans();
        let p = &mut c.problems;
        let ops = durations_ns(&spans, Call::is_device_op);
        let mut job_ns: Vec<u64> = jobs.iter().map(|j| j.end.since(j.due).as_nanos()).collect();
        let mut late_ns: Vec<u64> = jobs
            .iter()
            .map(|j| j.start.since(j.due).as_nanos())
            .collect();
        job_ns.sort_unstable();
        late_ns.sort_unstable();
        let mut e2e: Vec<Metric> = Vec::new();
        for (name, unit, v) in [
            ("op_p50_us", "us", pct("op_p50_us", &ops, P50, 1e3, p)),
            ("op_p999_us", "us", pct("op_p999_us", &ops, P999, 1e3, p)),
            ("job_p50_ms", "ms", pct("job_p50_ms", &job_ns, P50, 1e6, p)),
            ("job_p99_ms", "ms", pct("job_p99_ms", &job_ns, P99, 1e6, p)),
        ] {
            if let Some(v) = v {
                e2e.push(metric(name, unit, v));
            }
        }
        c.virtual_metrics = e2e;
        let held: f64 = jobs
            .iter()
            .map(|j| j.released.since(j.granted).as_secs_f64())
            .sum();
        let span_s = jobs
            .iter()
            .map(|j| j.end)
            .max()
            .unwrap_or(SimTime::ZERO)
            .as_secs_f64();
        c.notes.push(format!(
            "samples: op_p50_us/op_p999_us over {} device API calls, \
             job_p50_ms/job_p99_ms over {} jobs; accelerators held {:.1}% of {:.3} s virtual",
            ops.len(),
            jobs.len(),
            100.0 * held / (ACCELERATORS as f64 * span_s.max(f64::MIN_POSITIVE)),
            span_s
        ));

        let mut layers = Vec::new();
        let mut counts = Vec::new();
        for (call, name) in [
            (Call::MemAlloc, "mem_alloc"),
            (Call::H2d, "h2d"),
            (Call::Launch, "launch"),
            (Call::D2h, "d2h"),
            (Call::MemFree, "mem_free"),
        ] {
            let v = durations_ns(&spans, |c| c == call);
            counts.push(format!("{name} {}", v.len()));
            for (q, tag) in [(P50, "p50"), (P99, "p99")] {
                let full = format!("core.api.{name}.virt_us_{tag}");
                if let Some(x) = pct(&full, &v, q, 1e3, p) {
                    layers.push(metric(full, "us", x));
                }
            }
        }
        c.notes
            .push(format!("samples per call: {}", counts.join(", ")));
        let submit = durations_ns(&spans, |c| c == Call::Acquire);
        let release = durations_ns(&spans, |c| c == Call::Finish);
        for (name, values, q) in [
            ("arm.submit.virt_us_p50", &submit, P50),
            ("arm.submit.virt_us_p99", &submit, P99),
            ("arm.release.virt_us_p99", &release, P99),
        ] {
            if let Some(x) = pct(name, values, q, 1e3, p) {
                layers.push(metric(name, "us", x));
            }
        }
        if let Some(x) = pct("bench.generator_late_ms_p99", &late_ns, P99, 1e6, p) {
            layers.push(metric("bench.generator_late_ms_p99", "ms", x));
        }
        layers.extend(program_layers(
            &staged.cluster,
            &daemons,
            tele,
            &spans,
            c.attempted,
            staged.jobs as u64,
        ));
        c.layers = layers;
        c
    }
}
