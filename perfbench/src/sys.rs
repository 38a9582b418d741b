//! Process and file hygiene for the benchmark: children that are always
//! reaped, work directories that are always removed, bounded polls, and
//! resource usage read from the kernel.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Output};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where every run keeps its temporary files, relative to the checkout
/// root the benchmark runs from.
const WORK_ROOT: &str = ".bench_work";

/// A child process that is killed and reaped when dropped, so an early
/// return or a panic never leaves an orphan to skew the next sample.
pub struct Reaped(Option<Child>);

impl Reaped {
    pub fn spawn(cmd: &mut Command) -> Result<Reaped, String> {
        cmd.spawn()
            .map(|c| Reaped(Some(c)))
            .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))
    }

    pub fn id(&self) -> u32 {
        self.0.as_ref().map_or(0, Child::id)
    }

    pub fn wait(mut self) -> Result<ExitStatus, String> {
        let mut child = self.0.take().expect("child present until waited");
        child
            .wait()
            .map_err(|e| format!("cannot wait for child: {e}"))
    }

    /// Waits up to `deadline` for the child to exit; past it the child is
    /// killed (and reaped) and the wait reported as failed.
    pub fn wait_within(mut self, deadline: Duration) -> Result<ExitStatus, String> {
        let start = Instant::now();
        let child = self.0.as_mut().expect("child present until waited");
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    self.0 = None;
                    return Ok(status);
                }
                Ok(None) if start.elapsed() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err(format!("child did not exit within {deadline:?}")),
                Err(e) => return Err(format!("cannot wait for child: {e}")),
            }
        }
    }

    pub fn wait_with_output(mut self) -> Result<Output, String> {
        let child = self.0.take().expect("child present until waited");
        child
            .wait_with_output()
            .map_err(|e| format!("cannot collect child output: {e}"))
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A fresh directory under the work root, removed (with everything in
/// it) when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> Result<WorkDir, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(WORK_ROOT).join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once the last run's directory is gone.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// Polls for `path` to hold a non-empty file, giving up after `deadline`.
pub fn wait_for_file(path: &Path, deadline: Duration) -> Result<String, String> {
    let start = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if !text.trim().is_empty() {
                return Ok(text.trim().to_string());
            }
        }
        if start.elapsed() > deadline {
            return Err(format!(
                "{} did not appear within {deadline:?}",
                path.display()
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Peak resident set of a live process (`VmHWM`), in KiB.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Largest `VmHWM` in the process tree rooted at `pid`, in KiB.
fn tree_peak_rss_kb(pid: u32) -> u64 {
    let own = peak_rss_kb(pid).unwrap_or(0);
    let children =
        std::fs::read_to_string(format!("/proc/{pid}/task/{pid}/children")).unwrap_or_default();
    children
        .split_whitespace()
        .filter_map(|c| c.parse().ok())
        .map(tree_peak_rss_kb)
        .fold(own, u64::max)
}

/// Polls the peak RSS of a process tree (a fabric driver and its
/// workers, say) while it runs. The kernel's children totals cannot
/// serve here: a child spawned with `vfork` inherits its parent's
/// high-water mark.
pub struct TreeWatch {
    stop: Arc<AtomicBool>,
    poller: JoinHandle<u64>,
}

impl TreeWatch {
    pub fn start(root: u32) -> TreeWatch {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let poller = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(tree_peak_rss_kb(root));
                std::thread::sleep(Duration::from_millis(10));
            }
            peak
        });
        TreeWatch { stop, poller }
    }

    /// Stops polling and returns the largest peak seen, in KiB.
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.poller.join().expect("RSS poller panicked")
    }
}

/// A CPU mask as `sched_{get,set}affinity` take it: 1024 bits.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn set_affinity(mask: &CpuMask) -> Result<(), String> {
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Keeps the calling thread, and every process it spawns meanwhile, on
/// one CPU; the thread's previous CPUs come back on drop. A closed-loop
/// client and server that only ever take turns then never wait for a
/// wakeup on the other CPU, which on a busy virtual machine costs up to
/// milliseconds and doubled session times between otherwise equal runs.
pub struct Pinned(CpuMask);

impl Pinned {
    pub fn to_one_cpu() -> Result<Pinned, String> {
        let mut allowed: CpuMask = [0; 16];
        // SAFETY: `allowed` is a writable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let rc =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
        if rc != 0 {
            return Err(format!(
                "sched_getaffinity failed: {}",
                std::io::Error::last_os_error()
            ));
        }
        let word = allowed
            .iter()
            .position(|&w| w != 0)
            .ok_or("no CPU is allowed")?;
        let mut one: CpuMask = [0; 16];
        one[word] = 1 << allowed[word].trailing_zeros();
        set_affinity(&one)?;
        Ok(Pinned(allowed))
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        let _ = set_affinity(&self.0);
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    _longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// User plus system CPU time, in ms, of every child (and grandchild)
/// this process has reaped so far.
pub fn children_cpu_ms() -> f64 {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        _longs: [0; 14],
    };
    // SAFETY: `u` is a live, writable value laid out as the kernel's
    // 64-bit `struct rusage`, and RUSAGE_CHILDREN is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    let ms = |t: &Timeval| t.sec as f64 * 1e3 + t.usec as f64 / 1e3;
    ms(&u.utime) + ms(&u.stime)
}
