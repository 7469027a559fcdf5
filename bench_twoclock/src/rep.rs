//! One rep: set-up and timed phase of one workload, run in a child
//! process of its own.
//!
//! A finished simulation is not freed (the fabric's dispatcher tasks keep
//! its core alive), so reps in one process would grow its heap from rep to
//! rep. A fresh process per rep starts every rep from the same state and
//! makes its peak resident set the rep's own.
//!
//! The traced run also needs host-time *differences* of a few percent
//! (telemetry attached or not, spans on or off), smaller than the drift of
//! a shared host from one rep to the next. A *trio* therefore runs three
//! reps of the same inputs as stepped child processes and advances them
//! in turn by the same slice of virtual time, so all three see the same
//! host conditions; each one's CPU time is summed over its slices.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use dacc_sim::prelude::*;
use dacc_telemetry::{Telemetry, DEFAULT_SPAN_CAPACITY};

use crate::cpu_clock::thread_cpu_time;
use crate::harness::{metric, Metric, Mode, Workload};
use crate::trace::Trace;

/// What one rep measured and checked.
#[derive(Default)]
pub struct Rep {
    pub mode: Mode,
    pub setup_s: f64,
    pub inputs_s: f64,
    pub build_s: f64,
    pub host_s: f64,
    pub wall_s: f64,
    /// CPU time of the calibration job, run before and after the timed
    /// phase of an unsliced rep.
    pub calib_s: f64,
    pub rss_mib: f64,
    pub events: u64,
    /// Minor page faults the process took while the simulation ran.
    pub faults: u64,
    /// Virtual time at which the simulation ended.
    pub end_ns: u64,
    pub digest: u64,
    pub attempted: u64,
    pub ok: u64,
    pub problems: Vec<String>,
    pub virtual_metrics: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub notes: Vec<String>,
}

/// Run one rep in this process.
pub fn measure<W: Workload>(seed: u64, mode: Mode) -> Rep {
    let wall = Instant::now();
    let calib = calibrate();
    let t0 = thread_cpu_time();
    let inputs = W::inputs(seed);
    let t1 = thread_cpu_time();
    let warm = W::warm_up(&inputs);
    let t2 = thread_cpu_time();
    let mut sim = Sim::new();
    let tele = telemetry(mode);
    let trace = Trace::new(sim.handle(), mode.traced, 1 << 16);
    let staged = W::stage(&sim, inputs, &trace, &tele);
    let f0 = minor_faults();
    let t3 = thread_cpu_time();
    let outcome = sim.run();
    let t4 = thread_cpu_time();
    let calib2 = calibrate();
    let faults = minor_faults() - f0;
    let mut rep = finish::<W>(mode, staged, &sim, trace, &tele, outcome.events);
    rep.faults = faults;
    if let Err(e) = warm {
        rep.problems.push(format!("warm-up: {e}"));
    }
    let secs = |d: Duration| d.as_secs_f64();
    rep.setup_s = secs(t3 - t0);
    rep.inputs_s = secs(t1 - t0);
    rep.build_s = secs(t3 - t2);
    rep.host_s = secs(t4 - t3);
    rep.wall_s = secs(wall.elapsed());
    rep.calib_s = secs(calib + calib2);
    rep
}

/// A fixed CPU job mixing what the simulator spends its time on: heap
/// allocation, ordered-map updates and branchy integer work. Its CPU time
/// says how fast the machine runs at the moment; it touches no code of
/// the program, so a change to the program cannot move it.
fn calibrate() -> Duration {
    let t = thread_cpu_time();
    let mut map = std::collections::BTreeMap::new();
    let mut boxes: Vec<Box<u64>> = Vec::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..300_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 16_384, i);
        boxes.push(Box::new(x));
        if boxes.len() > 4096 {
            boxes.clear();
        }
    }
    std::hint::black_box((&map, &boxes));
    thread_cpu_time() - t
}

/// The rep's record once `sim` ran to its end.
fn finish<W: Workload>(
    mode: Mode,
    staged: W::Staged,
    sim: &Sim,
    trace: Trace,
    tele: &Telemetry,
    events: u64,
) -> Rep {
    let digest = trace.digest();
    let end_ns = sim.now().as_nanos();
    let mut c = W::collect(staged, sim, trace, tele);
    let rss_mib = peak_rss_mib().unwrap_or_else(|e| {
        c.problems.push(e);
        0.0
    });
    Rep {
        mode,
        rss_mib,
        events,
        end_ns,
        digest,
        attempted: c.attempted,
        ok: c.ok,
        problems: c.problems,
        virtual_metrics: c.virtual_metrics,
        layers: c.layers,
        notes: c.notes,
        ..Rep::default()
    }
}

/// Slices of virtual time a trio advances its simulations by.
const SLICES: u64 = 400;

/// The modes of a trio: untraced and traced at the workload's own
/// telemetry setting, and traced at the other one.
pub fn trio_modes(own_telemetry: bool) -> [Mode; 3] {
    [
        Mode {
            traced: false,
            telemetry: own_telemetry,
        },
        Mode {
            traced: true,
            telemetry: own_telemetry,
        },
        Mode {
            traced: true,
            telemetry: !own_telemetry,
        },
    ]
}

/// A stepped child: set up, then advance the simulation only as far as
/// each `run <virtual ns>` line on stdin says, answering `ok`. `end` runs
/// it to its end and prints the rep. Host time counts only the stepping.
pub fn serve_stepped<W: Workload>(seed: u64, mode: Mode) -> Result<(), String> {
    let inputs = W::inputs(seed);
    let warm = W::warm_up(&inputs);
    let mut sim = Sim::new();
    let tele = telemetry(mode);
    let trace = Trace::new(sim.handle(), mode.traced, 1 << 16);
    let staged = W::stage(&sim, inputs, &trace, &tele);
    let mut host = Duration::ZERO;
    let io = |e: std::io::Error| format!("stepped rep I/O: {e}");
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")
        .and_then(|()| out.flush())
        .map_err(io)?;
    let f0 = minor_faults();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(io)?;
        let t = thread_cpu_time();
        if let Some(ns) = line.strip_prefix("run ") {
            let ns = ns.parse().map_err(|e| format!("step {line:?}: {e}"))?;
            sim.run_until(SimTime::from_nanos(ns));
            host += thread_cpu_time() - t;
            writeln!(out, "ok").and_then(|()| out.flush()).map_err(io)?;
        } else if line == "end" {
            sim.run();
            host += thread_cpu_time() - t;
            let events = sim.handle().events_processed();
            let mut rep = finish::<W>(mode, staged, &sim, trace, &tele, events);
            if let Err(e) = warm {
                rep.problems.push(format!("warm-up: {e}"));
            }
            rep.host_s = host.as_secs_f64();
            rep.faults = minor_faults() - f0;
            return write!(out, "{}", rep.encode()).map_err(io);
        } else {
            return Err(format!("unknown step command {line:?}"));
        }
    }
    Err("stdin closed before `end`".into())
}

fn telemetry(mode: Mode) -> Telemetry {
    if mode.telemetry {
        Telemetry::new(DEFAULT_SPAN_CAPACITY)
    } else {
        Telemetry::disabled()
    }
}

/// The `--rep` argument naming `mode`.
pub fn mode_arg(mode: Mode) -> String {
    format!("{}{}", u8::from(mode.traced), u8::from(mode.telemetry))
}

/// Parse a `--rep` mode argument: two flags, traced then telemetry.
pub fn parse_mode(s: &str) -> Option<Mode> {
    let flag = |c: u8| match c {
        b'0' => Some(false),
        b'1' => Some(true),
        _ => None,
    };
    match s.as_bytes() {
        &[t, m] => Some(Mode {
            traced: flag(t)?,
            telemetry: flag(m)?,
        }),
        _ => None,
    }
}

/// Run one rep of `workload` in a child process and wait for it. A child
/// that fails yields a failed rep carrying the reason.
pub fn spawn(workload: &str, seed: u64, mode: Mode) -> Rep {
    let failed = |problem: String| Rep {
        mode,
        problems: vec![problem],
        ..Rep::default()
    };
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return failed(format!("locating the benchmark: {e}")),
    };
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--rep", &mode_arg(mode)])
        .output();
    match out {
        Ok(out) if out.status.success() => {
            Rep::decode(mode, &String::from_utf8_lossy(&out.stdout)).unwrap_or_else(failed)
        }
        Ok(out) => failed(format!(
            "rep process exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
        Err(e) => failed(format!("starting a rep process: {e}")),
    }
}

/// Run a trio of `workload` as three stepped child processes, advancing
/// each in turn by the same slice of virtual time up to `end_ns`, the time
/// an unsliced rep of the same seed ended at. Waits for all three.
pub fn spawn_trio(workload: &str, seed: u64, own_telemetry: bool, end_ns: u64) -> Vec<Rep> {
    let modes = trio_modes(own_telemetry);
    lockstep(workload, seed, &modes, end_ns).unwrap_or_else(|problem| {
        modes
            .iter()
            .map(|&mode| Rep {
                mode,
                problems: vec![problem.clone()],
                ..Rep::default()
            })
            .collect()
    })
}

struct Stepped {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

/// Stepped children, killed and reaped however the trio ends.
struct Children(Vec<Stepped>);

impl Drop for Children {
    fn drop(&mut self) {
        for s in &mut self.0 {
            let _ = s.child.kill();
            let _ = s.child.wait();
        }
    }
}

impl Stepped {
    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.stdin, "{line}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("writing to a stepped rep: {e}"))
    }

    fn expect(&mut self, want: &str) -> Result<(), String> {
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading from a stepped rep: {e}"))?;
        if line.trim_end() == want {
            Ok(())
        } else {
            Err(format!("stepped rep answered {line:?}, not {want:?}"))
        }
    }
}

fn lockstep(workload: &str, seed: u64, modes: &[Mode], end_ns: u64) -> Result<Vec<Rep>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let seed = seed.to_string();
    let mut kids = Children(Vec::new());
    for &mode in modes {
        let mut child = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed])
            .args(["--rep", &format!("step{}", mode_arg(mode))])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting a stepped rep: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        kids.0.push(Stepped {
            child,
            stdin,
            stdout,
        });
    }
    for k in &mut kids.0 {
        k.expect("ready")?;
    }
    let n = kids.0.len();
    for s in 1..=SLICES {
        let deadline = end_ns / SLICES * s + end_ns % SLICES * s / SLICES;
        // Rotate which child goes first in a slice.
        for j in 0..n {
            let k = &mut kids.0[(j + s as usize) % n];
            k.send(&format!("run {deadline}"))?;
            k.expect("ok")?;
        }
    }
    let mut reps = Vec::with_capacity(n);
    for (k, &mode) in kids.0.iter_mut().zip(modes) {
        k.send("end")?;
        let mut text = String::new();
        k.stdout
            .read_to_string(&mut text)
            .map_err(|e| format!("reading a stepped rep: {e}"))?;
        let status = k
            .child
            .wait()
            .map_err(|e| format!("waiting for a stepped rep: {e}"))?;
        if !status.success() {
            return Err(format!("stepped rep exited with {status}"));
        }
        reps.push(Rep::decode(mode, &text)?);
    }
    Ok(reps)
}

/// Keep a free-text field on one tab-separated line.
fn one_line(s: &str) -> String {
    s.replace(['\t', '\n'], " ")
}

impl Rep {
    /// One `key<TAB>value...` line per field; floats print so that they
    /// parse back to the same bits.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (k, v) in [
            ("setup_s", self.setup_s),
            ("inputs_s", self.inputs_s),
            ("build_s", self.build_s),
            ("host_s", self.host_s),
            ("wall_s", self.wall_s),
            ("calib_s", self.calib_s),
            ("rss_mib", self.rss_mib),
        ] {
            out += &format!("{k}\t{v:?}\n");
        }
        for (k, v) in [
            ("events", self.events),
            ("faults", self.faults),
            ("end_ns", self.end_ns),
            ("digest", self.digest),
            ("attempted", self.attempted),
            ("ok", self.ok),
        ] {
            out += &format!("{k}\t{v}\n");
        }
        for p in &self.problems {
            out += &format!("problem\t{}\n", one_line(p));
        }
        for n in &self.notes {
            out += &format!("note\t{}\n", one_line(n));
        }
        for (k, ms) in [("virtual", &self.virtual_metrics), ("layer", &self.layers)] {
            for m in ms {
                out += &format!("{k}\t{}\t{}\t{:?}\n", m.name, m.unit, m.value);
            }
        }
        out
    }

    pub fn decode(mode: Mode, text: &str) -> Result<Rep, String> {
        let mut r = Rep {
            mode,
            ..Rep::default()
        };
        let bad = |line: &str| format!("unreadable rep line {line:?}");
        for line in text.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            let float = |i: usize| {
                f.get(i)
                    .and_then(|v| v.parse::<f64>().ok())
                    .ok_or_else(|| bad(line))
            };
            let int = || {
                f.get(1)
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or_else(|| bad(line))
            };
            match f[0] {
                "setup_s" => r.setup_s = float(1)?,
                "inputs_s" => r.inputs_s = float(1)?,
                "build_s" => r.build_s = float(1)?,
                "host_s" => r.host_s = float(1)?,
                "wall_s" => r.wall_s = float(1)?,
                "calib_s" => r.calib_s = float(1)?,
                "rss_mib" => r.rss_mib = float(1)?,
                "events" => r.events = int()?,
                "faults" => r.faults = int()?,
                "end_ns" => r.end_ns = int()?,
                "digest" => r.digest = int()?,
                "attempted" => r.attempted = int()?,
                "ok" => r.ok = int()?,
                "problem" => r.problems.push(f[1..].join(" ")),
                "note" => r.notes.push(f[1..].join(" ")),
                "virtual" | "layer" if f.len() == 4 => {
                    let m = metric(f[1], f[2], float(3)?);
                    if f[0] == "virtual" {
                        r.virtual_metrics.push(m);
                    } else {
                        r.layers.push(m);
                    }
                }
                _ => return Err(bad(line)),
            }
        }
        Ok(r)
    }
}

/// Minor page faults this process has taken (field 10 of
/// `/proc/self/stat`; 0 if unreadable, which only blanks the metric).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    after
        .split_whitespace()
        .nth(7)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let mode = Mode {
            traced: true,
            telemetry: false,
        };
        let rep = Rep {
            mode,
            setup_s: 0.1,
            host_s: 1.0 / 3.0,
            events: 42,
            digest: u64::MAX,
            attempted: 7,
            ok: 6,
            problems: vec!["a\tb\nc".into()],
            virtual_metrics: vec![metric("gflops", "GFlop/s", 133.95066138658729)],
            layers: vec![metric("sim.events", "count", 1e-300)],
            notes: vec!["n".into()],
            ..Rep::default()
        };
        let back = Rep::decode(mode, &rep.encode()).expect("decodes");
        assert_eq!(back.host_s.to_bits(), rep.host_s.to_bits());
        assert_eq!(back.digest, u64::MAX);
        assert_eq!((back.attempted, back.ok, back.events), (7, 6, 42));
        assert_eq!(back.problems, vec!["a b c".to_string()]);
        assert_eq!(
            back.virtual_metrics[0].value.to_bits(),
            133.95066138658729f64.to_bits()
        );
        assert_eq!(back.layers[0].value, 1e-300);
        assert_eq!(back.notes, vec!["n".to_string()]);
        assert_eq!(parse_mode(&mode_arg(mode)), Some(mode));
        assert_eq!(parse_mode("2"), None);
    }
}
