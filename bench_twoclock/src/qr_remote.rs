//! `qr_remote`: the paper's headline (Fig. 9). Hybrid QR at N=10240 on
//! three network-attached GPUs granted by one ARM allocation, several
//! factorizations back to back in a closed loop, timing-only payloads and
//! the telemetry plane attached, as the figure binaries run.
//!
//! Payloads are size-only, so host time goes to executor events, the
//! pipelined-block protocol, linalg orchestration and telemetry recording;
//! there is no byte work and no ARM contention.

use dacc_arm::state::JobId;
use dacc_linalg::gpu::{register_linalg_kernels, register_staging_kernels};
use dacc_linalg::hybrid::{dgeqrf_hybrid, qr_flops, HybridConfig, HybridReport};
use dacc_linalg::lapack::qr_residuals;
use dacc_linalg::matrix::{HostMatrix, Matrix};
use dacc_runtime::prelude::*;
use dacc_sim::prelude::*;
use dacc_telemetry::Telemetry;
use dacc_vgpu::kernel::KernelRegistry;
use dacc_vgpu::params::ExecMode;

use crate::harness::{
    check_clean_end, cluster_spec, describe_spec, metric, program_layers, Collected, Workload,
};
use crate::trace::{Call, Trace};

/// Matrix order of the timed factorizations (the Fig. 9 headline point).
const N: usize = 10240;
const GPUS: usize = 3;
/// Factorizations per rep: one takes about 0.3 s of host time, too short
/// to time within a tenth on its own.
const FACTORIZATIONS: usize = 3;
/// Order of the functional-mode QR checked in set-up.
const CHECK_N: usize = 192;
const CHECK_TOLERANCE: f64 = 1e-10;

pub struct QrRemote;

#[derive(Clone)]
pub struct Inputs {
    /// Seeded matrix for the functional check.
    check: Matrix,
}

type Outcome = (Vec<Result<HybridReport, AcError>>, HostMatrix);

pub struct Staged {
    cluster: Cluster,
    out: JoinHandle<Outcome>,
}

fn registry() -> KernelRegistry {
    let reg = KernelRegistry::new();
    register_linalg_kernels(&reg);
    register_staging_kernels(&reg);
    reg
}

/// Acquire `GPUS` accelerators through the ARM, run `qrs` factorizations
/// of `host` back to back, release, and shut every server down.
async fn factorize(
    trace: Trace,
    proc: AcProcess,
    daemons: Vec<RemoteAccelerator>,
    mut host: HostMatrix,
    cfg: HybridConfig,
    qrs: usize,
) -> Outcome {
    let mut out = Vec::with_capacity(qrs);
    match trace
        .span(Call::Acquire, 0, proc.acquire(GPUS as u32))
        .await
    {
        Ok(accels) => {
            let devices = AcProcess::as_devices(&accels);
            for _ in 0..qrs {
                let r = trace
                    .span(
                        Call::Qr,
                        0,
                        dgeqrf_hybrid(trace.handle(), &devices, &mut host, &cfg),
                    )
                    .await;
                out.push(r);
            }
            trace.span(Call::Finish, 0, proc.finish()).await;
        }
        Err(e) => out.push(Err(e)),
    }
    for d in &daemons {
        let _ = d.shutdown().await;
    }
    proc.arm().shutdown().await;
    (out, host)
}

fn stage_cluster(
    sim: &Sim,
    mode: ExecMode,
    host: HostMatrix,
    cfg: HybridConfig,
    qrs: usize,
    trace: &Trace,
    tele: &Telemetry,
) -> (Cluster, JoinHandle<Outcome>) {
    let mut cluster = build_cluster(sim, cluster_spec(1, GPUS, mode), registry());
    if tele.is_enabled() {
        cluster.set_telemetry(tele.clone());
    }
    let ep = cluster.cn_endpoints.remove(0);
    let frontend = cluster.spec.frontend;
    let daemons = (0..GPUS)
        .map(|i| RemoteAccelerator::new(ep.clone(), cluster.daemon_rank(i), frontend))
        .collect();
    let proc = AcProcess::new(ep, cluster.arm_rank, JobId(1), frontend);
    let out = sim.spawn(
        "qr",
        factorize(trace.clone(), proc, daemons, host, cfg, qrs),
    );
    (cluster, out)
}

impl Workload for QrRemote {
    const TELEMETRY: bool = true;
    /// Executor, allocator and map work, like the calibration job:
    /// measured slope 1.09 over 20 runs.
    const CALIBRATION_EXPONENT: f64 = 1.0;
    type Inputs = Inputs;
    type Staged = Staged;

    fn describe() -> String {
        format!(
            "{} n={N} factorizations_per_rep={FACTORIZATIONS} check_n={CHECK_N}",
            describe_spec(&cluster_spec(1, GPUS, ExecMode::TimingOnly))
        )
    }

    fn inputs(seed: u64) -> Inputs {
        Inputs {
            check: Matrix::random(CHECK_N, CHECK_N, &mut SimRng::derive(seed, "qr_check")),
        }
    }

    /// A small functional-mode QR on the same three remote GPUs, checked
    /// against the input: the timed runs move sizes only and cannot be.
    fn warm_up(inputs: &Inputs) -> Result<(), String> {
        let mut sim = Sim::new();
        let trace = Trace::new(sim.handle(), false, 16);
        let cfg = HybridConfig {
            nb: 32,
            ..HybridConfig::default()
        };
        let host = HostMatrix::Real(inputs.check.clone());
        let (cluster, out) = stage_cluster(
            &sim,
            ExecMode::Functional,
            host,
            cfg,
            1,
            &trace,
            &Telemetry::disabled(),
        );
        sim.run();
        let mut problems = Vec::new();
        check_clean_end(&cluster, &sim, &mut problems);
        let (reports, host) = out.try_take().ok_or("functional QR did not finish")?;
        let report = reports
            .into_iter()
            .next()
            .ok_or("functional QR did not run")?
            .map_err(|e| format!("functional QR failed: {e}"))?;
        let HostMatrix::Real(factored) = &host else {
            return Err("functional QR lost its matrix".into());
        };
        let (resid, orth) = qr_residuals(&inputs.check, factored, &report.tau);
        if !(resid < CHECK_TOLERANCE && orth < CHECK_TOLERANCE) {
            problems.push(format!(
                "functional QR residuals {resid:.3e} / {orth:.3e} not below {CHECK_TOLERANCE:e}"
            ));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }

    fn stage(sim: &Sim, _inputs: Inputs, trace: &Trace, tele: &Telemetry) -> Staged {
        let host = HostMatrix::Shape { rows: N, cols: N };
        let (cluster, out) = stage_cluster(
            sim,
            ExecMode::TimingOnly,
            host,
            HybridConfig::default(),
            FACTORIZATIONS,
            trace,
            tele,
        );
        Staged { cluster, out }
    }

    fn collect(staged: Staged, sim: &Sim, trace: Trace, tele: &Telemetry) -> Collected {
        let mut c = Collected {
            attempted: FACTORIZATIONS as u64,
            ..Collected::default()
        };
        let daemons = check_clean_end(&staged.cluster, sim, &mut c.problems);
        let reports = staged.out.try_take().map(|o| o.0).unwrap_or_default();
        let expected_flops = qr_flops(N, N);
        let (mut flops, mut secs) = (0.0, 0.0);
        for (i, r) in reports.iter().enumerate() {
            match r {
                Ok(rep) if rep.flops == expected_flops && !rep.elapsed.is_zero() => {
                    c.ok += 1;
                    flops += rep.flops;
                    secs += rep.elapsed.as_secs_f64();
                }
                Ok(rep) => c.problems.push(format!(
                    "factorization {i}: {} flops in {:?}, expected {expected_flops} flops",
                    rep.flops, rep.elapsed
                )),
                Err(e) => c.problems.push(format!("factorization {i} failed: {e}")),
            }
        }
        if reports.len() != FACTORIZATIONS {
            c.problems.push(format!(
                "{} of {FACTORIZATIONS} factorizations finished",
                reports.len()
            ));
        }
        c.virtual_metrics.push(metric(
            "gflops",
            "GFlop/s",
            flops / secs.max(f64::MIN_POSITIVE) / 1e9,
        ));

        let spans = trace.spans();
        // Every request the daemons served but their own shutdown.
        let device_calls: u64 = daemons.iter().map(|d| d.requests.saturating_sub(1)).sum();
        c.layers = vec![metric(
            "linalg.device_calls_per_qr",
            "count",
            device_calls as f64 / FACTORIZATIONS as f64,
        )];
        c.layers.extend(program_layers(
            &staged.cluster,
            &daemons,
            tele,
            &spans,
            FACTORIZATIONS as u64,
            1,
        ));
        c
    }
}
