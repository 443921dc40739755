//! The repo benchmark: one workload per run, closed loop on the wall clock.
//!
//! ```text
//! unintt-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run sets the workload up (five cold set-ups spread
//! over the run, their p10 is `setup_s`), issues ops back to back for
//! `--seconds` seconds — one driver thread, the next op only when the
//! previous returned and was checked — and prints every end-to-end metric. With `--trace 1` it runs
//! the workload's ops first untraced, then through the span recorder, then
//! sweeps every layer's probes, prints every per-layer metric and writes
//! `trace-<workload>.json`. The last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit status is
//! non-zero when any op failed its checks. See README.md.

mod host;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use metrics::Decl;
use spans::Recorder;
use stats::{median, p10, percentile};
use workloads::{Output, Workload};

/// The seed the pinned digests belong to.
const DEFAULT_SEED: u64 = 12;

/// Output digest of every workload at [`DEFAULT_SEED`]. Outputs are field
/// elements, proofs and commitments: bit-exact on every host and ISA tier.
const PINNED: [(&str, u64); 8] = [
    ("ntt-large", 0x4c7b_f77a_e163_dedd),
    ("ntt-batch", 0x7746_fac2_0037_886d),
    ("plonk-prove", 0xe91c_9b09_3102_ec51),
    ("stark-commit", 0x8279_d3ab_1ec2_13b8),
    ("serve-raw", 0xedbb_9f5a_9e04_8f75),
    ("serve-proofs", 0xa09b_7e1e_feb4_a4a8),
    ("fleet-chaos", 0x72f1_a5fc_a01d_96cd),
    ("engine-sim", 0x7fc7_ec34_dce1_849b),
];

const USAGE: &str = "usage: unintt-benchmark --workload <name> [--seed <u64>] [--seconds <n>] \
                     [--trace <0|1>]\n       unintt-benchmark --list";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: `setup` prints the set-up time in seconds and exits,
    /// `ops` prints the op p10 in ms and exits.
    child: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        child: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--list" {
            for name in workloads::NAMES {
                println!("{name}");
            }
            std::process::exit(0);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(0.0..=3600.0).contains(&args.seconds) {
                    return Err(bad("between 0 and 3600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--child" => args.child = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of: {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// Sets the workload up and returns it with the wall seconds that took.
fn timed_setup(name: &str, seed: u64) -> Result<(Box<dyn Workload>, f64), String> {
    let t = Instant::now();
    let w = workloads::setup(name, seed)?;
    Ok((w, t.elapsed().as_secs_f64()))
}

/// Runs this binary again as `--child <mode>` and parses the one number it
/// prints. The child is waited for; a failed child is a failed run.
fn child_number(
    mode: &str,
    workload: &str,
    seed: u64,
    seconds: f64,
    threads: Option<&str>,
) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode, "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(threads) = threads {
        cmd.env(unintt_exec::THREADS_ENV, threads);
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "child {mode} {workload} exited with {}",
            out.status
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("child {mode} {workload} printed no number: {e}"))
}

/// Op p10 in ms of `workload` measured in a child process, optionally
/// with `UNINTT_THREADS` set (the `exec` scaling probes).
pub fn child_op_ms(workload: &str, seed: u64, seconds: f64, threads: Option<&str>) -> f64 {
    child_number("ops", workload, seed, seconds, threads).unwrap_or_else(|e| panic!("{e}"))
}

/// What a stretch of ops produced.
#[derive(Default)]
struct Ops {
    /// Wall ms of every op that ran to completion.
    wall_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// The first op's output; every later op must reproduce it.
    first: Option<Output>,
}

impl Ops {
    /// Issues ops for `seconds` (always at least one), each timed alone
    /// and checked outside the timed section. A panic counts the op as
    /// failed and ends the stretch.
    fn run(
        &mut self,
        name: &str,
        seed: u64,
        w: &mut dyn Workload,
        rec: &mut Recorder,
        seconds: f64,
    ) {
        let begin = Instant::now();
        loop {
            let index = self.attempted as usize;
            self.attempted += 1;
            w.prepare();
            let id = format!("{name}#{index}");
            let t = Instant::now();
            let ran = catch_unwind(AssertUnwindSafe(|| rec.op(&id, |rec| w.op(rec))));
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            let panicked = ran.is_err();
            let verdict = match ran {
                Ok(()) => catch_unwind(AssertUnwindSafe(|| w.check(index)))
                    .unwrap_or_else(|_| Err("check panicked".into())),
                Err(_) => Err("op panicked".into()),
            }
            .and_then(|out| self.repeats(name, seed, out));
            match verdict {
                Ok(()) => self.wall_ms.push(wall_ms),
                Err(why) => {
                    self.failed += 1;
                    eprintln!("{name}#{index} FAILED: {why}");
                    if panicked {
                        return;
                    }
                }
            }
            if begin.elapsed().as_secs_f64() >= seconds {
                return;
            }
        }
    }

    /// Every op must reproduce the first op's digest and simulated clock
    /// bit for bit, and at the default seed the pinned digest.
    fn repeats(&mut self, name: &str, seed: u64, out: Output) -> Result<(), String> {
        let first = *self.first.get_or_insert(out);
        if out != first {
            return Err(format!(
                "output {out:?} differs from the first op's {first:?}"
            ));
        }
        let pinned = PINNED.iter().find(|(n, _)| *n == name).map(|(_, d)| *d);
        if seed == DEFAULT_SEED && pinned != Some(out.digest) {
            return Err(format!(
                "digest {:#018x} differs from the pinned {:#018x}",
                out.digest,
                pinned.unwrap_or(0)
            ));
        }
        Ok(())
    }
}

/// Where results and traces go: the cargo target directory the binary was
/// built into, which is inside the checkout and git-ignored.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    exe.ancestors()
        .nth(2)
        .map_or_else(PathBuf::new, PathBuf::from)
}

/// The result object — the last line of stdout — and whether the run was
/// correct: no op failed a check and every declared metric was measured.
fn result_json(ops: &Ops, decls: &[Decl], values: &BTreeMap<&str, f64>) -> (bool, String) {
    let mut correct = ops.failed == 0;
    let mut body = String::new();
    for d in decls {
        if !body.is_empty() {
            body.push_str(", ");
        }
        // `{}` prints an f64 with every digit it has and no exponent.
        let value = match values.get(d.name) {
            Some(v) if v.is_finite() => v.to_string(),
            _ => {
                correct = false;
                "null".to_string()
            }
        };
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        ops.attempted, ops.failed,
    );
    (correct, json)
}

fn print_table(decls: &[Decl], values: &BTreeMap<&str, f64>) {
    for d in decls {
        match values.get(d.name) {
            Some(v) => println!(
                "  {:<34} {:>18.6} {:<6} ({} is better)",
                d.name,
                v,
                d.unit,
                d.better.as_str()
            ),
            None => println!("  {:<34} {:>18} {}", d.name, "MISSING", d.unit),
        }
    }
}

/// Cold set-ups per run besides the process's own: this many child
/// processes before the timed ops and this many after, so the samples
/// span the run and a slow spell of the host cannot cover them all. A
/// zero-second run is a smoke run and makes do with its own set-up.
const CHILD_SETUPS_EACH_SIDE: usize = 2;

/// Tracing off: five cold set-ups, ops for `seconds`, end-to-end metrics.
fn run_end_to_end(args: &Args) -> Result<(Ops, BTreeMap<&'static str, f64>), String> {
    let name = args.workload.as_str();
    // Plan and twiddle caches are process-wide, so a second set-up in this
    // process would be warm: the others run in child processes.
    let child_setup = || child_number("setup", name, args.seed, 0.0, None);
    let children = if args.seconds > 0.0 {
        CHILD_SETUPS_EACH_SIDE
    } else {
        0
    };
    let (mut w, own_setup_s) = timed_setup(name, args.seed)?;
    let mut setups = vec![own_setup_s];
    for _ in 0..children {
        setups.push(child_setup()?);
    }

    let mut ops = Ops::default();
    ops.run(
        name,
        args.seed,
        w.as_mut(),
        &mut Recorder::off(),
        args.seconds,
    );
    let peak_rss_mib = host::peak_rss_mib();
    drop(w);
    for _ in 0..children {
        setups.push(child_setup()?);
    }

    let mut values = BTreeMap::new();
    if !ops.wall_ms.is_empty() {
        values.insert("op_ms_p10", p10(&ops.wall_ms));
        println!(
            "{name}: seed {}, {} ops in {} s: min {:.3} p10 {:.3} p50 {:.3} p90 {:.3} ms",
            args.seed,
            ops.attempted,
            args.seconds,
            percentile(&ops.wall_ms, 0.0),
            p10(&ops.wall_ms),
            median(&ops.wall_ms),
            percentile(&ops.wall_ms, 0.9),
        );
    }
    // The same estimator as for ops, for the same reason; with fewer than
    // ten samples it is the fastest one.
    values.insert("setup_s", p10(&setups));
    println!("{name}: cold set-ups {setups:?} s");
    if let Some(mib) = peak_rss_mib {
        values.insert("peak_rss_mb", mib);
    }
    Ok((ops, values))
}

/// Tracing on: the workload's ops untraced then traced, then every
/// layer's probes; per-layer metrics and `trace-<workload>.json`.
fn run_traced(args: &Args) -> Result<(Ops, BTreeMap<&'static str, f64>), String> {
    let name = args.workload.as_str();
    let (mut w, _) = timed_setup(name, args.seed)?;
    let mut rec = Recorder::on();

    let mut plain = Ops::default();
    plain.run(
        name,
        args.seed,
        w.as_mut(),
        &mut Recorder::off(),
        args.seconds / 4.0,
    );
    let mut traced = Ops {
        first: plain.first,
        ..Ops::default()
    };
    traced.run(name, args.seed, w.as_mut(), &mut rec, args.seconds / 4.0);
    drop(w);

    let mut values = BTreeMap::new();
    if !plain.wall_ms.is_empty() && !traced.wall_ms.is_empty() {
        values.insert("bench.op_ms_p50", median(&plain.wall_ms));
        values.insert("bench.op_ms_p90", percentile(&plain.wall_ms, 0.9));
        values.insert("bench.samples", plain.wall_ms.len() as f64);
        values.insert(
            "bench.trace_overhead_x",
            p10(&traced.wall_ms) / p10(&plain.wall_ms),
        );
    }
    let probed = catch_unwind(AssertUnwindSafe(|| {
        rec.op("layer-probes", |rec| {
            layers::Probes::new(rec, args.seed, args.seconds).run_all()
        })
    }));
    let mut ops = Ops {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        ..Ops::default()
    };
    match probed {
        Ok(probed) => values.extend(probed),
        Err(_) => {
            ops.failed += 1;
            eprintln!("{name}: a layer probe panicked");
        }
    }

    let path = out_dir().join(format!("trace-{name}.json"));
    std::fs::write(&path, spans::chrome_trace_json(rec.spans()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{name}: seed {}, {} untraced + {} traced ops, {} spans -> {}",
        args.seed,
        plain.attempted,
        traced.attempted,
        rec.spans().len(),
        path.display()
    );
    Ok((ops, values))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.child.as_deref() {
        Some("setup") => {
            return match timed_setup(&args.workload, args.seed) {
                Ok((_, seconds)) => {
                    println!("{seconds}");
                    ExitCode::SUCCESS
                }
                Err(why) => {
                    eprintln!("{why}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("ops") => {
            let Ok((mut w, _)) = timed_setup(&args.workload, args.seed) else {
                return ExitCode::FAILURE;
            };
            let mut ops = Ops::default();
            ops.run(
                &args.workload,
                args.seed,
                w.as_mut(),
                &mut Recorder::off(),
                args.seconds,
            );
            if ops.failed > 0 || ops.wall_ms.is_empty() {
                return ExitCode::FAILURE;
            }
            println!("{}", p10(&ops.wall_ms));
            return ExitCode::SUCCESS;
        }
        Some(other) => {
            eprintln!("unknown child mode {other}\n{USAGE}");
            return ExitCode::from(2);
        }
        None => {}
    }

    let (decls, ran): (&[Decl], _) = if args.trace {
        (&metrics::PER_LAYER, run_traced(&args))
    } else {
        (&metrics::END_TO_END, run_end_to_end(&args))
    };
    let (ops, values) = match ran {
        Ok(ran) => ran,
        Err(why) => {
            eprintln!("{}: {why}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    print_table(decls, &values);
    let (correct, result) = result_json(&ops, decls, &values);
    let host = host::fingerprint_json(args.seed);
    let path = out_dir().join(format!(
        "results-{}-trace{}.json",
        args.workload,
        u8::from(args.trace)
    ));
    let file = format!(
        "{{\"workload\": \"{}\", \"host\": {host}, \"result\": {result}}}\n",
        args.workload
    );
    if let Err(e) = std::fs::write(&path, file) {
        eprintln!("{}: {e}", path.display());
    }
    println!("host: {host}");
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
