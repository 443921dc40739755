//! Host fingerprint and process memory, read from `/proc` and `/sys`.
//!
//! Every results file carries the fingerprint: a wall-clock number means
//! nothing without the core count, ISA tier and toolchain that produced it.

use std::fs;

use unintt_ff::{BabyBear, Goldilocks};

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
/// `None` where `/proc/self/status` does not exist or lacks the field.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Size of cpu0's unified cache at `level`, as sysfs prints it (`"2048K"`).
fn cache_size(level: u32) -> String {
    (0..8)
        .find_map(|idx| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
            let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).ok();
            let is_level = read("level")?.trim() == level.to_string();
            let unified = read("type")?.trim() == "Unified";
            (is_level && unified).then(|| read("size"))?
        })
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".to_string())
}

/// The host fingerprint as a JSON object. `rustc` and `commit` come from
/// the environment `run.sh` exports (`BENCH_RUSTC`, `BENCH_COMMIT`), since
/// the binary may run where neither `rustc` nor `.git` is reachable.
pub fn fingerprint_json(seed: u64) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"logical_cores\": {cores}, \"exec_threads\": {}, \"isa_goldilocks\": \"{}\", \
         \"isa_babybear\": \"{}\", \"l2\": \"{}\", \"l3\": \"{}\", \"rustc\": \"{}\", \
         \"commit\": \"{}\", \"unintt_threads_env\": \"{}\", \"seed\": {seed}}}",
        unintt_exec::Executor::global().threads(),
        unintt_ntt::active_backend_label::<Goldilocks>(),
        unintt_ntt::active_backend_label::<BabyBear>(),
        cache_size(2),
        cache_size(3),
        env_or_unknown("BENCH_RUSTC"),
        env_or_unknown("BENCH_COMMIT"),
        std::env::var(unintt_exec::THREADS_ENV).unwrap_or_else(|_| "unset".to_string()),
    )
}
