//! Host probes: a fixed compute-only loop and a fixed memory-bound loop. They
//! run at the start and end of every benchmark run, so a slow host phase can
//! be told apart from a slow commit. They run in a child process, so the
//! probe buffer never shows in the benchmark's peak resident memory.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Rounds of the compute loop: eight independent xorshift lanes, so the loop
/// is bound by instruction throughput, which a busy sibling hardware thread
/// slows down (a single dependent chain barely notices it).
const COMPUTE_ROUNDS: u32 = 1 << 22;
/// 16 MiB of `u32` links, beyond the per-core caches.
const CHASE_WORDS: usize = 4 << 20;
/// Dependent loads of the pointer chase.
const CHASE_STEPS: u32 = 1 << 20;

#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub compute_ms: f64,
    pub memory_ms: f64,
}

/// Runs both probes in a child process and waits for it.
pub fn measure() -> Result<Probe, String> {
    let exe = std::env::current_exe().map_err(|e| format!("probe: {e}"))?;
    let out = Command::new(exe).arg("--probe").output().map_err(|e| format!("probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    match (out.status.success(), fields.next(), fields.next()) {
        (true, Some(Ok(compute_ms)), Some(Ok(memory_ms))) => Ok(Probe { compute_ms, memory_ms }),
        _ => Err(format!("probe failed: {}", String::from_utf8_lossy(&out.stderr))),
    }
}

/// The child side of [`measure`]: prints `<compute_ms> <memory_ms>`.
pub fn run_child() {
    println!("{} {}", compute_ms(), memory_ms());
}

fn xorshift(x: u64) -> u64 {
    let x = x ^ (x << 13);
    let x = x ^ (x >> 7);
    x ^ (x << 17)
}

fn compute_ms() -> f64 {
    let start = Instant::now();
    let mut lanes = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
    for _ in 0..COMPUTE_ROUNDS {
        lanes = lanes.map(xorshift);
    }
    black_box(lanes);
    start.elapsed().as_secs_f64() * 1e3
}

fn memory_ms() -> f64 {
    // One random cycle through the buffer (Sattolo's shuffle), so every load
    // depends on the previous one and the prefetcher cannot help.
    let mut links: Vec<u32> = (0..CHASE_WORDS as u32).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15;
    for i in (1..CHASE_WORDS).rev() {
        x = xorshift(x);
        links.swap(i, (x % i as u64) as usize);
    }
    let start = Instant::now();
    let mut at = 0u32;
    for _ in 0..CHASE_STEPS {
        at = links[at as usize];
    }
    black_box(at);
    start.elapsed().as_secs_f64() * 1e3
}
