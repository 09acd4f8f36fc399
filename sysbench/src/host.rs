//! What the bench asks of the host: one CPU to itself, the process's CPU
//! time and peak resident set, and the reference kernel its clock is
//! corrected by.
//!
//! On the 2-vCPU reference box two busy rank threads see any host steal on
//! *either* vCPU as a stalled step (20–33 % run-to-run range); the same
//! world confined to one CPU ranges 4–11 %. The server and its generator,
//! left to both vCPUs, switch every few seconds between two placements
//! that saturate at 145 and 200 req/s; on one CPU they hold ~200. So every
//! workload pins the process — and through inheritance every rank thread,
//! rank child process, server and generator thread — to one CPU: the *last* it is allowed to use. CPU 0 takes the
//! timer and virtio interrupts and whatever else wakes on the box; in
//! alternating runs of `train_r2_halo` the step time's quartile spread was
//! 9 % pinned to CPU 0 and 3.6 % pinned to CPU 1.

#[cfg(not(target_os = "linux"))]
compile_error!("sysbench reads /proc and pins with sched_setaffinity: Linux only");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
/// Words of the kernel's default 1024-bit CPU set.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// Last CPU of a kernel CPU list such as `0-1` or `3,5-7`.
pub fn last_cpu(list: &str) -> Option<usize> {
    list.rsplit([',', '-']).next()?.trim().parse().ok()
}

/// Pin the calling thread (and everything it spawns afterwards) to the
/// last CPU of `Cpus_allowed_list`. Returns whether the kernel accepted;
/// a refusal leaves the process unpinned and is reported as
/// `bench.pinned = 0`.
pub fn pin_to_one_cpu() -> bool {
    let Some(cpu) = status_field("Cpus_allowed_list").and_then(|l| last_cpu(&l)) else {
        return false;
    };
    if cpu >= CPU_SET_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, correctly sized CPU set for the duration
    // of the call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid out-pointer for one timespec.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User + system CPU seconds this process (all threads) has consumed.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Peak resident set of this process in KiB (`VmHWM`).
pub fn peak_rss_kb() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line")
}

/// What [`Reference::run`] takes on the reference box in its fast state.
/// Only a unit: it makes corrected times read like seconds of that box.
pub const REFERENCE_NOMINAL_S: f64 = 5.0e-3;

/// Side of the reference GEMM's square matrices: three of them are 96 KiB,
/// past L1 and inside L2, like the program's per-layer weight products.
const REF_N: usize = 64;
/// Parts a timed pass is cut into.
const REF_PARTS: usize = 8;
/// Products per pass.
const REF_GEMMS: usize = 72;
/// Elements of the array the scattered pass walks (16 MiB: past L2).
const REF_SPAN: usize = 1 << 21;
/// Scattered read-modify-writes per pass.
const REF_TOUCHES: usize = 1 << 18;

/// The host-speed reference: a fixed kernel, frozen in this package, that
/// the bench times beside every block of work. The shared box runs the
/// same code at speeds up to 1.6x apart from one minute (sometimes one
/// second) to the next, and what slows is floating-point throughput and
/// cache/memory traffic: in the same stretches an integer dependency chain
/// kept its speed to 3 % while a training step ranged 27 %. So the kernel
/// is made of what the program is made of, a small dense product and a
/// scattered pass over memory, and a block's time is divided by the
/// kernel's time next to it. Medians of corrected times over 60 blocks
/// ranged 2-6 % where the raw medians ranged 9-28 %.
pub struct Reference {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    span: Vec<f64>,
    at: Vec<u32>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Allocate and fill the kernel's operands.
    pub fn new() -> Reference {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (s >> 33) as usize
        };
        Reference {
            a: (0..REF_N * REF_N).map(|i| (i % 17) as f64 * 0.01).collect(),
            b: (0..REF_N * REF_N).map(|i| (i % 13) as f64 * 0.02).collect(),
            c: vec![0.0; REF_N * REF_N],
            span: (0..REF_SPAN).map(|i| i as f64).collect(),
            at: (0..REF_TOUCHES)
                .map(|_| (next() % REF_SPAN) as u32)
                .collect(),
        }
    }

    /// Run the kernel and return the CPU seconds it took this thread: what
    /// the host's speed makes of a fixed amount of work, whoever else got
    /// the CPU in between.
    ///
    /// An untimed pass goes first and brings the operands back into the
    /// caches (after a stacked batch had pushed 600 MB through them a cold
    /// reading took twice a warm one). The timed pass is cut into
    /// [`REF_PARTS`] equal parts and reported as that many times their
    /// median: the host takes the vCPU away for ~15 ms at a time, in one
    /// reading out of ten once the CPU has been idle, and the guest books
    /// that as CPU time of whichever part was running.
    pub fn run(&mut self) -> f64 {
        for part in 0..REF_PARTS {
            self.part(part);
        }
        let mut parts = [0.0; REF_PARTS];
        for (part, took) in parts.iter_mut().enumerate() {
            let t0 = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID);
            self.part(part);
            *took = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID) - t0;
        }
        REF_PARTS as f64 * crate::stats::median(&mut parts)
    }

    fn part(&mut self, part: usize) {
        let n = REF_N;
        for _ in 0..REF_GEMMS / REF_PARTS {
            self.c.fill(0.0);
            for i in 0..n {
                let row = &mut self.c[i * n..(i + 1) * n];
                for k in 0..n {
                    let aik = self.a[i * n + k];
                    for (c, b) in row.iter_mut().zip(&self.b[k * n..(k + 1) * n]) {
                        *c += aik * b;
                    }
                }
            }
            std::hint::black_box(&mut self.c);
        }
        let touches = REF_TOUCHES / REF_PARTS;
        let mut acc = 0.0;
        for &j in &self.at[part * touches..(part + 1) * touches] {
            let v = &mut self.span[j as usize];
            acc += *v;
            *v = acc * 1e-9;
        }
        std::hint::black_box(acc);
    }
}

/// The factors that turn times measured in consecutive blocks into
/// corrected time, given the reference readings around them (one before
/// each block and one after the last): the nominal reading over the mean
/// of the block's two.
///
/// A reading is first replaced by the middle one of itself and its
/// neighbours (the smaller, where it has one neighbour). One reading in
/// ten to twenty comes out at three to four times the others, when the
/// host takes most of the vCPU away for some tens of milliseconds; the
/// block beside it, twenty times longer, hardly saw that. A change of the
/// host's speed that lasts passes through unchanged.
pub fn clock_scales(readings: &[f64]) -> Vec<f64> {
    assert!(readings.len() >= 2, "a block lies between two readings");
    let calm = |i: usize| {
        let mut near = readings[i.saturating_sub(1)..(i + 2).min(readings.len())].to_vec();
        near.sort_by(|a, b| a.partial_cmp(b).expect("readings are never NaN"));
        near[(near.len() - 1) / 2]
    };
    (0..readings.len() - 1)
        .map(|i| 2.0 * REFERENCE_NOMINAL_S / (calm(i) + calm(i + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_cpu_of_kernel_lists() {
        assert_eq!(last_cpu("0-1"), Some(1));
        assert_eq!(last_cpu("3,5-7"), Some(7));
        assert_eq!(last_cpu("0-3,9"), Some(9));
        assert_eq!(last_cpu("12"), Some(12));
        assert_eq!(last_cpu(""), None);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let a = process_cpu_s();
        let took = Reference::new().run();
        assert!(took > 0.0 && process_cpu_s() > a);
        assert!(peak_rss_kb() > 0.0);
    }

    #[test]
    fn clock_scales_follow_the_host_and_drop_spikes() {
        let n = REFERENCE_NOMINAL_S;
        assert_eq!(
            clock_scales(&[2.0 * n, 2.0 * n]),
            [0.5],
            "a host at half speed halves measured times"
        );
        assert_eq!(clock_scales(&[n, n, 4.0 * n, n, n]), [1.0; 4], "a spike");
        assert_eq!(clock_scales(&[n, 4.0 * n, n]), [1.0; 2]);
        assert_eq!(
            clock_scales(&[4.0 * n, n, n]),
            [1.0; 2],
            "a spike at the end"
        );
        let shift = clock_scales(&[n, n, 3.0 * n, 3.0 * n]);
        assert_eq!(shift[..2], [1.0, 0.5], "a lasting change stays");
        assert!((shift[2] - 1.0 / 3.0).abs() < 1e-12);
    }
}
