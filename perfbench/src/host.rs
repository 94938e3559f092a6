//! The machine a run measured on: fingerprint, host-speed probe, the
//! reference kernels that rescale the batch workloads' timings, steal
//! time, and the process's peak resident set.

use crate::stats::mean;
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker threads the machine offers (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// `(CPU model, kernel release)`.
pub fn fingerprint() -> (String, String) {
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    (cpu, kernel)
}

/// Jiffies stolen by the hypervisor and in total (the first eight
/// fields: user to steal) on the `/proc/stat` line `cpu` (all CPUs) or
/// `cpuN`.
pub fn cpu_jiffies(cpu: Option<usize>) -> (u64, u64) {
    let key = cpu.map_or_else(|| "cpu".to_string(), |c| format!("cpu{c}"));
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix(key.as_str())?.strip_prefix(' '))
        .unwrap_or_default()
        .split_whitespace()
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of vCPU time the hypervisor stole between two
/// [`cpu_jiffies`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    after.0.saturating_sub(before.0) as f64 / total.max(1) as f64
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU set as `sched_{get,set}affinity` take it (1024 CPUs).
type CpuMask = [u64; 16];

/// The CPU the calling thread runs on.
fn current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments.
    usize::try_from(unsafe { sched_getcpu() }).ok()
}

/// The CPUs this process may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: the kernel writes at most `cpusetsize` bytes into `mask`,
    // which holds that many; pid 0 is the calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } == 0;
    (0..64 * mask.len())
        .filter(|&c| ok && mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread, and the threads it starts from now on, to
/// `cpu`.
fn pin_to(cpu: usize) -> bool {
    let mut mask: CpuMask = [0; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word |= 1 << (cpu % 64);
    // SAFETY: the kernel reads `cpusetsize` bytes from `mask`, which
    // holds that many; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pins the calling thread, and the threads it starts from now on, to
/// the CPU it runs on, so that a single-threaded workload and its
/// [`HostSampler`] share one vCPU. Returns the CPUs to sample: that one,
/// or every allowed CPU when pinning fails.
pub fn pin_here() -> Vec<usize> {
    match current_cpu() {
        Some(cpu) if pin_to(cpu) => vec![cpu],
        _ => allowed_cpus(),
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Milliseconds for a fixed kernel that belongs to the benchmark, not to
/// the program: a dependent walk over a 2 MiB permutation plus a
/// streaming pass over the same buffer. It moves with the cache and
/// memory contention that slows the workloads, which a pure-ALU loop
/// does not, so a slow host period shows in it while a slow commit does
/// not. Median of five timings.
///
/// Runs in a child process (this binary with `--probe`), so its buffer
/// and allocator traffic stay out of the benchmark's peak resident set.
pub fn probe_ms() -> f64 {
    let child = std::env::current_exe()
        .and_then(|exe| std::process::Command::new(exe).arg("--probe").output());
    match child {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse()
            .unwrap_or(f64::NAN),
        _ => f64::NAN,
    }
}

/// The probe kernel itself (the `--probe` child).
pub fn probe_kernel_ms() -> f64 {
    const WORDS: usize = 1 << 19;
    // A single cycle through every slot (Sattolo's shuffle on a
    // fixed xorshift stream), so the walk visits the whole buffer.
    let mut next: Vec<u32> = (0..WORDS as u32).collect();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in (1..WORDS).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x % i as u64) as usize;
        next.swap(i, j);
    }
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut at = 0u32;
            for _ in 0..WORDS {
                at = next[at as usize];
            }
            let sum: u64 = next.iter().map(|&v| u64::from(v)).sum();
            std::hint::black_box((at, sum));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

/// A kernel that belongs to the benchmark and slows down with the host
/// the way one workload's hot loop does. A [`HostSampler`] times it
/// while the workload runs, and the batch workloads rescale every timing
/// by it.
///
/// Host throughput on the reference VM moves by up to 2× within a minute
/// and by a third between runs, and how far a stretch of code slows
/// depends on what it does: a pure-ALU loop stays within 3% while a
/// 6-qubit `run_noisy` evaluation halves its speed. A kernel that does
/// the same kind of work on a working set of the same size slows with
/// the workload. In a one-minute test of 3-s windows, with kernels of
/// the same kind, a 6-qubit objective evaluation took 7.9–21.9 ms while
/// its ratio to [`Reference::DensityMatrix`] stayed within 29.0–33.0,
/// and a 100-qubit `reevaluate_genome` call took 3.8–5.6 ms while its
/// ratio to [`Reference::PauliFrames`] stayed within 24.3–28.2. Neither
/// kernel calls the program, so no commit moves them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reference {
    /// Conjugates a 6-qubit density matrix (64 × 64 complex entries,
    /// 64 KiB) by a two-qubit unitary: the dense complex arithmetic of
    /// `eftq_statesim`.
    DensityMatrix,
    /// Propagates Pauli frames of 100 qubits × 2048 shots (32 words a
    /// qubit, 50 KiB) through 400 random CX gates, XORing sampled flips
    /// into them: the word arithmetic of `eftq_stabilizer`.
    PauliFrames,
}

/// Timed repetitions per reference sample. A sample is their median, so
/// a repetition that a preemption or a host stall lands on drops out.
const REFERENCE_REPS: usize = 7;

impl Reference {
    /// Milliseconds of one repetition on the reference machine at its
    /// usual speed: the median of samples taken over 30 s by
    /// `cargo test --release -- --ignored calibrate_reference --nocapture`.
    /// Rescaled timings read as milliseconds on that machine.
    pub fn nominal_ms(self) -> f64 {
        match self {
            Reference::DensityMatrix => 0.052,
            Reference::PauliFrames => 0.072,
        }
    }

    /// One host-speed sample on the calling thread: the median
    /// milliseconds of [`REFERENCE_REPS`] repetitions.
    pub fn sample_ms(self) -> f64 {
        let mut times = [0.0; REFERENCE_REPS];
        for t in &mut times {
            let start = Instant::now();
            match self {
                Reference::DensityMatrix => RHO.with_borrow_mut(|rho| conjugate_pair(rho)),
                Reference::PauliFrames => FRAMES.with_borrow_mut(Frames::propagate),
            }
            *t = start.elapsed().as_secs_f64() * 1e3;
        }
        times.sort_by(f64::total_cmp);
        times[REFERENCE_REPS / 2]
    }

    /// How much slower than usual the host ran at a sample.
    pub fn factor(self, sample_ms: f64) -> f64 {
        sample_ms / self.nominal_ms()
    }
}

/// Time between two samples of one [`HostSampler`] thread.
const SAMPLE_PERIOD: Duration = Duration::from_millis(50);

/// A timing is rescaled by the samples taken from this long before it
/// started to this long after it ended.
const SAMPLE_MARGIN: Duration = Duration::from_millis(100);

/// Threads that time a [`Reference`] every [`SAMPLE_PERIOD`] while a
/// workload runs, one pinned to each CPU the workload runs on.
///
/// Each vCPU of the reference VM switches, about every second and
/// independently of the other, between a fast state and one about 1.6×
/// slower. A `run_vqe` call lasts about a second, so samples taken only
/// between calls catch one state or the other at random; a sampler on
/// the same vCPU sees the states the call sees. Each sample takes about
/// 0.5 ms of its vCPU, 1% of the time.
pub struct HostSampler {
    reference: Reference,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<Vec<Sample>>>,
}

/// One [`HostSampler`] sample: when, the reference kernel's time, and
/// the sampled CPU's `(stolen, total)` jiffies.
#[derive(Clone, Copy, Debug)]
struct Sample {
    at: Instant,
    ms: f64,
    cpu: usize,
    jiffies: (u64, u64),
}

impl HostSampler {
    /// Starts one sampler thread on each of `cpus`.
    pub fn start(reference: Reference, cpus: &[usize]) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    pin_to(cpu);
                    let mut samples = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(SAMPLE_PERIOD);
                        samples.push(Sample {
                            at: Instant::now(),
                            ms: reference.sample_ms(),
                            cpu,
                            jiffies: cpu_jiffies(Some(cpu)),
                        });
                    }
                    samples
                })
            })
            .collect();
        HostSampler {
            reference,
            stop,
            threads,
        }
    }

    /// Stops the threads, waits for them, and returns their samples.
    pub fn finish(self) -> HostSpeed {
        self.stop.store(true, Ordering::Relaxed);
        let mut samples: Vec<Sample> = self
            .threads
            .into_iter()
            .flat_map(|t| t.join().expect("host sampler panicked"))
            .collect();
        samples.sort_by_key(|s| s.at);
        HostSpeed {
            reference: self.reference,
            samples,
        }
    }
}

/// The samples a [`HostSampler`] took, in time order.
pub struct HostSpeed {
    reference: Reference,
    samples: Vec<Sample>,
}

impl HostSpeed {
    /// The samples from `margin` before `start` to `margin` after `end`.
    fn window(&self, start: Instant, end: Instant, margin: Duration) -> &[Sample] {
        let lo = start.checked_sub(margin).unwrap_or(start);
        let a = self.samples.partition_point(|s| s.at < lo);
        let b = self.samples.partition_point(|s| s.at <= end + margin);
        &self.samples[a..b]
    }

    /// How much slower than usual the host ran from `start` to `end`.
    /// Two things slow it: the vCPU runs slower (the mean sample from
    /// [`SAMPLE_MARGIN`] before `start` to [`SAMPLE_MARGIN`] after `end`,
    /// or the nearest sample when none falls there, over the kernel's
    /// nominal time), and the hypervisor stops it (the share of jiffies
    /// stolen from [`STEAL_MARGIN`] before to [`STEAL_MARGIN`] after,
    /// which a sample's median leaves out). 1 without samples.
    pub fn factor(&self, start: Instant, end: Instant) -> f64 {
        let Some(last) = self.samples.len().checked_sub(1) else {
            return 1.0;
        };
        let ms: Vec<f64> = self
            .window(start, end, SAMPLE_MARGIN)
            .iter()
            .map(|s| s.ms)
            .collect();
        let ms = mean(&ms).unwrap_or_else(|| {
            let i = self.samples.partition_point(|s| s.at < start).min(last);
            self.samples[i].ms
        });
        self.reference.factor(ms) / (1.0 - stolen(self.window(start, end, STEAL_MARGIN)))
    }

    /// `raw`, measured from `start` to `end`, rescaled to the reference
    /// machine's usual speed.
    pub fn rescale(&self, raw: f64, start: Instant, end: Instant) -> f64 {
        raw / self.factor(start, end)
    }

    /// The factor over the whole run.
    pub fn run_factor(&self) -> Option<f64> {
        let (first, last) = (self.samples.first()?, self.samples.last()?);
        Some(self.factor(first.at, last.at))
    }
}

/// Steal is counted in 4-ms jiffies, so its share is taken over at least
/// this long on each side of a timing.
const STEAL_MARGIN: Duration = Duration::from_secs(1);

/// The share of jiffies stolen between the first and the last sample of
/// each CPU in `window`, over all its CPUs (below 1).
fn stolen(window: &[Sample]) -> f64 {
    let (mut steal, mut total) = (0, 0);
    let mut cpus: Vec<usize> = window.iter().map(|s| s.cpu).collect();
    cpus.sort_unstable();
    cpus.dedup();
    for cpu in cpus {
        let mut on_cpu = window.iter().filter(|s| s.cpu == cpu);
        let first = on_cpu.next().expect("the CPU has a sample");
        let last = on_cpu.last().unwrap_or(first);
        steal += last.jiffies.0.saturating_sub(first.jiffies.0);
        total += last.jiffies.1.saturating_sub(first.jiffies.1);
    }
    (steal as f64 / total.max(1) as f64).min(0.5)
}

/// Side of the reference density matrix.
const DIM: usize = 64;

/// Qubits and shot words of the reference frames.
const FRAME_QUBITS: usize = 100;
const FRAME_WORDS: usize = 32;

thread_local! {
    /// `|+⟩⟨+|` on six qubits; unitary conjugation keeps it a pure
    /// state, so its entries never grow or turn subnormal.
    static RHO: RefCell<Vec<[f64; 2]>> =
        RefCell::new(vec![[1.0 / DIM as f64, 0.0]; DIM * DIM]);
    /// The qubit pair the next density repetition acts on.
    static PAIR: Cell<usize> = const { Cell::new(0) };
    static FRAMES: RefCell<Frames> = RefCell::new(Frames {
        x: vec![0; FRAME_QUBITS * FRAME_WORDS],
        z: vec![0; FRAME_QUBITS * FRAME_WORDS],
        rng: 0x9e37_79b9_7f4a_7c15,
    });
}

/// `(H ⊗ H)` followed by a phase on each basis state: entry `(k, m)`.
fn gate(k: usize, m: usize) -> [f64; 2] {
    let sign = if (k & m).count_ones() % 2 == 0 {
        0.5
    } else {
        -0.5
    };
    let theta = 0.4 * k as f64;
    [sign * theta.cos(), sign * theta.sin()]
}

fn cmul(a: [f64; 2], b: [f64; 2]) -> [f64; 2] {
    [a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]]
}

/// `ρ ← U ρ U†` for the two-qubit `U` of [`gate`] on qubits (0, 1), then
/// (2, 3), then (4, 5) in turn, one pair a call.
fn conjugate_pair(rho: &mut [[f64; 2]]) {
    let u: [[f64; 2]; 16] = std::array::from_fn(|i| gate(i / 4, i % 4));
    let q = PAIR.with(|p| {
        let q = p.get();
        p.set((q + 2) % 6);
        q
    });
    let (lo, hi) = (1 << q, 2 << q);
    for left in [true, false] {
        for line in 0..DIM {
            for base in (0..DIM).filter(|b| b & (lo | hi) == 0) {
                let idx = [base, base | lo, base | hi, base | lo | hi];
                // U acts on row indices from the left and U† on column
                // indices from the right.
                let at = |k: usize| {
                    if left {
                        idx[k] * DIM + line
                    } else {
                        line * DIM + idx[k]
                    }
                };
                let v: [[f64; 2]; 4] = std::array::from_fn(|k| rho[at(k)]);
                for k in 0..4 {
                    let mut acc = [0.0; 2];
                    for (m, vm) in v.iter().enumerate() {
                        let g = u[k * 4 + m];
                        let g = if left { g } else { [g[0], -g[1]] };
                        let p = cmul(g, *vm);
                        acc[0] += p[0];
                        acc[1] += p[1];
                    }
                    rho[at(k)] = acc;
                }
            }
        }
    }
    black_box(&rho[0]);
}

/// Reference Pauli frames: X and Z words per qubit and the sampler state.
struct Frames {
    x: Vec<u64>,
    z: Vec<u64>,
    rng: u64,
}

impl Frames {
    fn propagate(&mut self) {
        let step = |s: &mut u64| {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            *s
        };
        let mut s = self.rng;
        let n = FRAME_QUBITS as u64;
        for _ in 0..4 * FRAME_QUBITS {
            let r = step(&mut s);
            let a = (r % n) as usize;
            let b = (a + 1 + ((r >> 32) % (n - 1)) as usize) % FRAME_QUBITS;
            for k in 0..FRAME_WORDS {
                let (xa, zb) = (self.x[a * FRAME_WORDS + k], self.z[b * FRAME_WORDS + k]);
                self.x[b * FRAME_WORDS + k] ^= xa;
                self.z[a * FRAME_WORDS + k] ^= zb;
                // A flip on each shot with probability 1/16.
                let r = step(&mut s);
                self.x[a * FRAME_WORDS + k] ^= r & (r >> 3) & (r >> 9) & (r >> 17);
            }
        }
        self.rng = s;
        black_box(&self.x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::median;

    #[test]
    fn reference_kernels_stay_finite() {
        for _ in 0..300 {
            Reference::DensityMatrix.sample_ms();
        }
        RHO.with_borrow(|rho| {
            let trace: f64 = (0..DIM).map(|i| rho[i * DIM + i][0]).sum();
            assert!((trace - 1.0).abs() < 1e-9, "trace {trace}");
            assert!(rho.iter().all(|e| e[0].is_finite() && e[1].is_finite()));
        });
        assert!(Reference::PauliFrames.sample_ms() > 0.0);
    }

    #[test]
    fn timings_rescale_by_the_samples_around_them() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let nominal = Reference::PauliFrames.nominal_ms();
        // Twice as slow as usual for the first second, then usual; a
        // quarter of the jiffies stolen after 1.5 s.
        let samples = (0..40u64)
            .map(|i| Sample {
                at: at(50 * i),
                ms: if i < 20 { 2.0 * nominal } else { nominal },
                cpu: 0,
                jiffies: (if i < 30 { 0 } else { (i - 30) * 3 }, 12 * i),
            })
            .collect();
        let speed = HostSpeed {
            reference: Reference::PauliFrames,
            samples,
        };
        assert!((speed.rescale(10.0, at(300), at(400)) - 5.0).abs() < 1e-12);
        // Usual speed, but steal counts from a second before to a
        // second after: samples 18 to 39, 27 of their 252 jiffies.
        let share = 27.0 / 252.0;
        let late = speed.rescale(10.0, at(1900), at(1950));
        assert!((late - 10.0 * (1.0 - share)).abs() < 1e-12, "{late}");
        // Beyond the samples: the nearest one, and no steal.
        assert!((speed.factor(at(9000), at(9001)) - 1.0).abs() < 1e-12);
        assert!((speed.factor(at(0), at(1)) - 2.0).abs() < 1e-12);
        let sampler = HostSampler::start(Reference::DensityMatrix, &allowed_cpus()[..1]);
        std::thread::sleep(Duration::from_millis(180));
        assert!(sampler.finish().samples.len() >= 2);
    }

    /// Prints the median sample of each kernel over 30 s: the source of
    /// [`Reference::nominal_ms`] on a new reference machine.
    #[test]
    #[ignore]
    fn calibrate_reference() {
        for r in [Reference::DensityMatrix, Reference::PauliFrames] {
            let start = Instant::now();
            let mut samples = Vec::new();
            while start.elapsed().as_secs() < 15 {
                samples.push(r.sample_ms());
            }
            println!(
                "{r:?}: median {:.5} ms over {} samples",
                median(&samples).unwrap(),
                samples.len()
            );
        }
    }
}
