//! `bulk_copy`: remote-copy bandwidth (Figs. 5/6). One compute node drives
//! one network-attached GPU in functional mode, telemetry detached. Every
//! buffer goes host-to-device, then back, and the readback must equal the
//! bytes sent.
//!
//! Buffer sizes are log-uniform from 256 KiB to 32 MiB, spanning the
//! paper's 128K/512K block crossover near 9 MiB, so H2D (adaptive blocks)
//! and D2H (128K blocks) are both measured and a gain in one direction that
//! costs the other shows. The workload is byte-bound: payload, CRC and
//! device-memory copies dominate host time; the executor and ARM do little.

use dacc_arm::state::JobId;
use dacc_fabric::payload::Payload;
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_telemetry::Telemetry;
use dacc_vgpu::kernel::KernelRegistry;
use dacc_vgpu::params::ExecMode;

use crate::harness::{
    check_clean_end, cluster_spec, describe_spec, metric, program_layers, seeded_bytes, Collected,
    Tally, Workload,
};
use crate::trace::{Call, Span, Trace};

const MIN_LEN: f64 = (256u64 << 10) as f64;
const MAX_LEN: f64 = (32u64 << 20) as f64;
/// Buffers per rep: about 300 MiB each way.
const BUFFERS: usize = 48;
/// Buffer sizes the warm-up copies: the same for every seed, so set-up
/// costs the same, and up to the largest size the timed work uses.
const WARM_SIZES: [u64; 3] = [256 << 10, 4 << 20, 32 << 20];
/// Every buffer is a window of one seeded pool, so the inputs cost one
/// pool's memory however many buffers a rep copies.
const POOL_LEN: usize = 64 << 20;
const MIB: f64 = (1u64 << 20) as f64;

pub struct BulkCopy;

#[derive(Clone)]
pub struct Inputs {
    pool: Payload,
    /// `(offset, len)` of each buffer within the pool, in copy order.
    buffers: Vec<(u64, u64)>,
}

pub struct Staged {
    cluster: Cluster,
    out: JoinHandle<Tally>,
}

/// Stratified log-uniform sizes: one draw from each of `n` equal slices of
/// the log range, then shuffled. Each size is still log-uniform, but the
/// total a rep moves varies far less between seeds than with independent
/// draws, which keeps the per-seed bandwidths comparable.
fn buffer_sizes(rng: &mut SimRng, n: usize) -> Vec<u64> {
    let (lo, hi) = (MIN_LEN.ln(), MAX_LEN.ln());
    let step = (hi - lo) / n as f64;
    let mut sizes: Vec<u64> = (0..n)
        .map(|i| {
            let x = lo + step * (i as f64 + rng.uniform());
            (x.exp() as u64).clamp(MIN_LEN as u64, MAX_LEN as u64) & !7
        })
        .collect();
    rng.shuffle(&mut sizes);
    sizes
}

async fn copy_all(trace: Trace, proc: AcProcess, inputs: Inputs) -> Tally {
    let mut t = Tally::default();
    let accels = match trace.span(Call::Acquire, 0, proc.acquire(1)).await {
        Ok(a) => a,
        Err(e) => {
            t.fail(format!("acquire: {e}"));
            proc.arm().shutdown().await;
            return t;
        }
    };
    let ac = &accels[0];
    let expected = inputs.pool.expect_bytes();
    for (i, &(off, len)) in inputs.buffers.iter().enumerate() {
        t.attempted += 4;
        let ptr = match trace.span(Call::MemAlloc, 0, ac.mem_alloc(len)).await {
            Ok(p) => p,
            Err(e) => {
                t.fail(format!("buffer {i}: mem_alloc({len}): {e}"));
                continue;
            }
        };
        t.ok += 1;
        let sent = inputs.pool.slice(off, len);
        match trace.span(Call::H2d, len, ac.mem_cpy_h2d(&sent, ptr)).await {
            Ok(()) => t.ok += 1,
            Err(e) => t.fail(format!("buffer {i}: h2d of {len} B: {e}")),
        }
        match trace.span(Call::D2h, len, ac.mem_cpy_d2h(ptr, len)).await {
            Ok(back)
                if back.to_bytes().as_ref() == &expected[off as usize..(off + len) as usize] =>
            {
                t.ok += 1;
            }
            Ok(_) => t.fail(format!(
                "buffer {i}: readback of {len} B differs from what was sent"
            )),
            Err(e) => t.fail(format!("buffer {i}: d2h of {len} B: {e}")),
        }
        match trace.span(Call::MemFree, 0, ac.mem_free(ptr)).await {
            Ok(()) => t.ok += 1,
            Err(e) => t.fail(format!("buffer {i}: mem_free: {e}")),
        }
    }
    trace.span(Call::Finish, 0, proc.finish()).await;
    if let Err(e) = ac.shutdown().await {
        t.fail(format!("daemon shutdown: {e}"));
    }
    proc.arm().shutdown().await;
    t
}

fn stage_copies(sim: &Sim, inputs: Inputs, trace: &Trace, tele: &Telemetry) -> Staged {
    let mut cluster = build_cluster(
        sim,
        cluster_spec(1, 1, ExecMode::Functional),
        KernelRegistry::new(),
    );
    if tele.is_enabled() {
        cluster.set_telemetry(tele.clone());
    }
    let ep = cluster.cn_endpoints.remove(0);
    let proc = AcProcess::new(ep, cluster.arm_rank, JobId(1), cluster.spec.frontend);
    let out = sim.spawn("bulk_copy", copy_all(trace.clone(), proc, inputs));
    Staged { cluster, out }
}

/// Total bytes over total virtual call time of one direction, in MiB/s.
fn bandwidth(spans: &[Span], call: Call) -> (u64, f64) {
    let (bytes, secs) = spans
        .iter()
        .filter(|s| s.call == call)
        .fold((0u64, 0.0f64), |(b, t), s| {
            (b + s.bytes, t + s.virt().as_secs_f64())
        });
    (bytes, bytes as f64 / MIB / secs.max(f64::MIN_POSITIVE))
}

impl Workload for BulkCopy {
    const TELEMETRY: bool = false;
    /// Byte copies, CRC and page faults move with the job's executor-like
    /// work only in part: measured slope 0.51 over 41 runs.
    const CALIBRATION_EXPONENT: f64 = 0.5;
    type Inputs = Inputs;
    type Staged = Staged;

    fn describe() -> String {
        format!(
            "{} buffers_per_rep={BUFFERS} sizes=log-uniform[256KiB,32MiB]",
            describe_spec(&cluster_spec(1, 1, ExecMode::Functional))
        )
    }

    fn inputs(seed: u64) -> Inputs {
        let pool = Payload::from_vec(seeded_bytes(seed, "bulk_pool", POOL_LEN));
        let mut rng = SimRng::derive(seed, "bulk_sizes");
        let buffers = buffer_sizes(&mut rng, BUFFERS)
            .into_iter()
            .map(|len| {
                let off = rng.index(POOL_LEN - len as usize + 1) as u64;
                (off, len)
            })
            .collect();
        Inputs { pool, buffers }
    }

    fn warm_up(inputs: &Inputs) -> Result<(), String> {
        let mut sim = Sim::new();
        let warm = Inputs {
            pool: inputs.pool.clone(),
            buffers: WARM_SIZES.iter().map(|&len| (0, len)).collect(),
        };
        let trace = Trace::new(sim.handle(), false, 64);
        let staged = stage_copies(&sim, warm, &trace, &Telemetry::disabled());
        sim.run();
        let mut problems = Vec::new();
        check_clean_end(&staged.cluster, &sim, &mut problems);
        let tally = staged.out.try_take().unwrap_or_default();
        problems.extend(tally.problems);
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }

    fn stage(sim: &Sim, inputs: Inputs, trace: &Trace, tele: &Telemetry) -> Staged {
        stage_copies(sim, inputs, trace, tele)
    }

    fn collect(staged: Staged, sim: &Sim, trace: Trace, tele: &Telemetry) -> Collected {
        let mut c = Collected::default();
        let daemons = check_clean_end(&staged.cluster, sim, &mut c.problems);
        let tally = staged.out.try_take().unwrap_or_default();
        tally.into_collected(&mut c, (BUFFERS * 4) as u64);

        let spans = trace.spans();
        let (h2d_bytes, h2d) = bandwidth(&spans, Call::H2d);
        let (d2h_bytes, d2h) = bandwidth(&spans, Call::D2h);
        c.virtual_metrics = vec![
            metric("h2d_mib_s", "MiB/s", h2d),
            metric("d2h_mib_s", "MiB/s", d2h),
        ];
        c.notes.push(format!(
            "moved {:.1} MiB each way in {BUFFERS} buffers per rep",
            h2d_bytes as f64 / MIB
        ));
        if trace.traced() {
            for (call, name, bytes) in [
                (Call::H2d, "core.api.h2d.host_ms_per_mib", h2d_bytes),
                (Call::D2h, "core.api.d2h.host_ms_per_mib", d2h_bytes),
            ] {
                let host_ns: u64 = spans
                    .iter()
                    .filter(|s| s.call == call)
                    .map(|s| s.host_ns)
                    .sum();
                c.layers.push(metric(
                    name,
                    "ms/MiB",
                    host_ns as f64 / 1e6 / (bytes as f64 / MIB),
                ));
            }
        }
        c.layers.extend(program_layers(
            &staged.cluster,
            &daemons,
            tele,
            &spans,
            c.attempted,
            1,
        ));
        c
    }
}
