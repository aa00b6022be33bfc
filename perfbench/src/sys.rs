//! Process resource usage and the run manifest.

use std::process::Command;

/// Process-wide resource usage so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU seconds of every thread of the process.
    pub cpu_s: f64,
    /// Peak resident set size, KiB.
    pub max_rss_kib: u64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod ffi {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    pub struct TimeVal {
        pub sec: i64,
        pub usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then fourteen
    /// `long` counters of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    pub struct RUsage {
        pub utime: TimeVal,
        pub stime: TimeVal,
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    pub const RUSAGE_SELF: i32 = 0;

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
}

/// Read the process's resource usage (`getrusage(RUSAGE_SELF)`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage() -> Usage {
    let mut ru = ffi::RUsage {
        utime: ffi::TimeVal { sec: 0, usec: 0 },
        stime: ffi::TimeVal { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable value whose layout matches the C
    // `struct rusage` of 64-bit Linux (checked by the cfg above), and
    // getrusage writes only within that struct.
    let rc = unsafe { ffi::getrusage(ffi::RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let secs = |t: &ffi::TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        max_rss_kib: ru.maxrss.max(0) as u64,
    }
}

/// Resource usage is only read on 64-bit Linux; elsewhere it reads zero.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn usage() -> Usage {
    Usage::default()
}

/// First line of a command's standard output, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// What ran: enough to tell two result sets apart. Never part of a
/// digested report.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
    /// Available parallelism of the host.
    pub nproc: usize,
    /// BSP pool slots (calling thread included).
    pub workers: usize,
    /// BSP partitions.
    pub partitions: usize,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
}

impl Manifest {
    /// Collect the manifest for a run on `workers` slots and `partitions`
    /// partitions.
    pub fn collect(workers: usize, partitions: usize) -> Manifest {
        Manifest {
            git_commit: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers,
            partitions,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// One-line JSON object, with the per-run fields added.
    pub fn to_json(&self, workload: &str, seed: u64, stepping: &str, mode: &str) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"mode\": \"{mode}\", \
             \"git_commit\": \"{}\", \"nproc\": {}, \"workers\": {}, \"partitions\": {}, \
             \"stepping\": \"{stepping}\", \"rustc\": \"{}\"}}",
            self.git_commit, self.nproc, self.workers, self.partitions, self.rustc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = usage();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = usage();
        assert!(after.cpu_s > before.cpu_s);
        assert!(after.max_rss_kib > 0);
    }
}
