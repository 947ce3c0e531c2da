//! Host fingerprint and noise probes written into every result file, so
//! a number can be read next to the machine and the disturbance it was
//! measured under.

use crate::json::Json;
use crate::stats;
use std::time::{Duration, Instant};

/// Cores of the host. The pipeline never runs more than two threads at
/// once (the solver is sequential; serving is the generator plus one
/// queue worker); the traced pass's two-thread sweep probes use
/// [`probe_threads`].
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Thread count of the traced pass's `_t2` sweep probes: two, or one on
/// a single-core host — never more threads than cores.
pub fn probe_threads() -> usize {
    nproc().min(2)
}

/// `VmHWM` of this process in MiB (peak resident set), from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size in bytes of cpu0's cache at `level` (unified or data), 0 if the
/// kernel does not report it.
fn cache_bytes(level: u32) -> f64 {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| {
            std::fs::read_to_string(format!("{dir}/{f}"))
                .ok()
                .map(|s| s.trim().to_string())
        };
        if read("level").and_then(|l| l.parse::<u32>().ok()) != Some(level) {
            continue;
        }
        if read("type").as_deref() == Some("Instruction") {
            continue;
        }
        if let Some(size) = read("size") {
            let (num, mult) = match size.chars().last() {
                Some('K') => (&size[..size.len() - 1], 1024.0),
                Some('M') => (&size[..size.len() - 1], 1024.0 * 1024.0),
                _ => (size.as_str(), 1.0),
            };
            return num.parse::<f64>().map_or(0.0, |n| n * mult);
        }
    }
    0.0
}

/// Smallest non-zero step the monotonic clock shows, in ns.
fn timer_ns() -> f64 {
    let mut best = u128::MAX;
    for _ in 0..2000 {
        let a = Instant::now();
        let mut b = Instant::now();
        while b == a {
            b = Instant::now();
        }
        best = best.min((b - a).as_nanos());
    }
    best as f64
}

/// p99 and max gap (µs) between consecutive clock reads of a thread that
/// does nothing else for `dur`: what the hypervisor and the other core's
/// tenant take away from a spinning generator.
fn spin_gaps(dur: Duration) -> (f64, f64) {
    let start = Instant::now();
    let mut last = start;
    let mut gaps = Vec::with_capacity(1 << 20);
    loop {
        let now = Instant::now();
        gaps.push((now - last).as_nanos() as f64 / 1e3);
        last = now;
        if now - start >= dur {
            break;
        }
    }
    let v = stats::sorted(&gaps);
    (
        stats::percentile_sorted(&v, 99.0),
        *v.last().unwrap_or(&0.0),
    )
}

/// Sustained copy bandwidth in GB/s (read + write bytes over time) over
/// two arrays of `bytes` each. The traced pass calls it with arrays
/// several times the last-level cache; both sizes go in the result file.
pub fn stream_gb_per_s(bytes: usize) -> f64 {
    let n = bytes / 8;
    let src = vec![1.0f64; n];
    let mut dst = vec![0.0f64; n];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (2 * n * 8) as f64 / best / 1e9
}

/// The fingerprint block: exact facts plus two cheap noise probes.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2_bytes: f64,
    pub l3_bytes: f64,
    pub timer_ns: f64,
    pub spin_gap_p99_us: f64,
    pub spin_gap_max_us: f64,
}

impl Host {
    pub fn probe() -> Host {
        let (spin_gap_p99_us, spin_gap_max_us) = spin_gaps(Duration::from_millis(20));
        Host {
            nproc: nproc(),
            cpu_model: cpu_model(),
            l2_bytes: cache_bytes(2),
            l3_bytes: cache_bytes(3),
            timer_ns: timer_ns(),
            spin_gap_p99_us,
            spin_gap_max_us,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("l2_bytes", Json::Num(self.l2_bytes)),
            ("l3_bytes", Json::Num(self.l3_bytes)),
            ("timer_ns", Json::Num(self.timer_ns)),
            ("spin_gap_p99_us", Json::Num(self.spin_gap_p99_us)),
            ("spin_gap_max_us", Json::Num(self.spin_gap_max_us)),
        ])
    }
}
