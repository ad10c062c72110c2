//! Child processes: building `pr-cli`, running it with resource
//! accounting, and making sure no child outlives the harness.

use std::io::Read;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Where things live in the checkout this harness was built in.
#[derive(Debug, Clone)]
pub struct Paths {
    /// The repository root (the parent of `benchmark/`).
    pub root: PathBuf,
    /// The `pr-cli` release binary.
    pub cli: PathBuf,
    /// `benchmark/out/`: result files, traces, daemon scratch files.
    pub out: PathBuf,
    /// `pr_bench::results_dir()`, compiled into `pr-cli` from this same
    /// checkout: where the CLI writes its artefacts.
    pub results: PathBuf,
}

impl Paths {
    /// Resolves the paths and builds `pr-cli` (a no-op when current).
    ///
    /// The root workspace builds into `$CARGO_TARGET_DIR` when the
    /// caller set one (resolved against the current directory, like
    /// cargo does) and into `<root>/target` otherwise — the same
    /// directory `cargo build --release` at the root fills.
    pub fn prepare() -> Result<Paths, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .ok_or("benchmark/ has no parent directory")?
            .to_path_buf();
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => {
                std::env::current_dir().map_err(|e| format!("current directory: {e}"))?.join(dir)
            }
            None => root.join("target"),
        };
        let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
            .args(["build", "--release", "--offline", "--quiet", "-p", "pr-cli"])
            .current_dir(&root)
            .env("CARGO_TARGET_DIR", &target)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building pr-cli failed ({status})"));
        }
        let cli = target.join("release/pr-cli");
        if !cli.is_file() {
            return Err(format!("{} is missing after the build", cli.display()));
        }
        let out = root.join("benchmark/out");
        std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
        Ok(Paths { results: pr_bench::results_dir(), root, cli, out })
    }
}

/// `struct timeval` of the C library.
#[repr(C)]
struct Timeval {
    tv_sec: std::os::raw::c_long,
    tv_usec: std::os::raw::c_long,
}

/// `struct rusage` of the Linux C library: two `timeval`s followed by
/// fourteen `long`s, none of which is read. (`ru_maxrss` in particular
/// is useless here: a child spawned by vfork starts on its parent's
/// address space, whose high-water mark exec folds into the child's, so
/// it reports the harness's peak whenever that is the larger one.)
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [std::os::raw::c_long; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

const WNOHANG: i32 = 1;

/// What the kernel accounted to a reaped child.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// How the child ended.
    pub status: ExitStatus,
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
}

/// `wait4(2)` on `pid`: `Ok(None)` when `options` has `WNOHANG` and the
/// child is still running.
fn wait4_usage(pid: u32, options: i32) -> Result<Option<Usage>, String> {
    let mut status = 0i32;
    // SAFETY: `Rusage` is plain integers, for which all-zero is valid.
    let mut ru: Rusage = unsafe { std::mem::zeroed() };
    // SAFETY: `status` and `ru` are live, writable and of the layouts
    // wait4(2) documents for Linux; `pid` names a child of this
    // process that has not been reaped (callers own the `Child`).
    let got = unsafe { wait4(pid as i32, &mut status, options, &mut ru) };
    match got {
        0 => Ok(None),
        n if n == pid as i32 => {
            let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
            Ok(Some(Usage {
                status: ExitStatus::from_raw(status),
                user_s: secs(&ru.ru_utime),
                sys_s: secs(&ru.ru_stime),
            }))
        }
        _ => Err(format!("wait4({pid}): {}", std::io::Error::last_os_error())),
    }
}

/// One finished `pr-cli` invocation.
#[derive(Debug)]
pub struct CliRun {
    /// Spawn → exit, in seconds.
    pub wall_s: f64,
    /// Kernel accounting of the child.
    pub usage: Usage,
    /// Largest `VmHWM` seen while the child ran (polled every 2 ms), in
    /// MB.
    pub peak_rss_mb: f64,
    /// Everything the child printed to stdout.
    pub stdout: String,
}

/// Runs `pr-cli <args>` to completion, timing spawn → exit and
/// collecting its stdout, CPU times and peak resident set size.
pub fn run_cli(cli: &Path, args: &[String]) -> Result<CliRun, String> {
    let start = Instant::now();
    let mut child = Command::new(cli)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
    // `spawn` returns after the exec, so the pid already runs pr-cli on
    // an address space of its own.
    let pid = child.id();
    let exited = AtomicBool::new(false);
    let mut stdout = String::new();
    let (read, usage, wall_s, peak_rss_mb) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut peak: f64 = 0.0;
            while !exited.load(Ordering::SeqCst) {
                // Fails once the child is a zombie; the last good
                // reading stands.
                peak = peak.max(vm_hwm_mb(pid).unwrap_or(0.0));
                std::thread::sleep(Duration::from_millis(2));
            }
            peak
        });
        let read = child.stdout.take().expect("stdout was piped").read_to_string(&mut stdout);
        // Reap through wait4 (not `Child::wait`) for the CPU times;
        // `child` is only dropped afterwards, which neither waits nor
        // kills.
        let usage = wait4_usage(pid, 0);
        let wall_s = start.elapsed().as_secs_f64();
        exited.store(true, Ordering::SeqCst);
        (read, usage, wall_s, poller.join().expect("the VmHWM poller does not panic"))
    });
    let usage = usage?.expect("blocking wait4 returns a status");
    read.map_err(|e| format!("read pr-cli stdout: {e}"))?;
    Ok(CliRun { wall_s, usage, peak_rss_mb, stdout })
}

/// A spawned child that is always reaped: [`Reaped::finish`] waits for
/// a voluntary exit (killing on timeout), and dropping an unfinished
/// one kills it. Used for the daemon, which only exits when asked to.
#[derive(Debug)]
pub struct Reaped {
    child: Option<Child>,
}

impl Reaped {
    /// Takes ownership of a freshly spawned child.
    pub fn new(child: Child) -> Reaped {
        Reaped { child: Some(child) }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("child was already reaped").id()
    }

    /// Whether the child has already exited (it is then reaped).
    pub fn exited(&mut self) -> Result<Option<Usage>, String> {
        let usage = wait4_usage(self.pid(), WNOHANG)?;
        if usage.is_some() {
            self.child = None;
        }
        Ok(usage)
    }

    /// Waits up to `timeout` for the child to exit by itself and
    /// returns its usage; after that it is killed, which is an `Err`.
    pub fn finish(mut self, timeout: Duration) -> Result<Usage, String> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(usage) = self.exited()? {
                return Ok(usage);
            }
            if Instant::now() >= deadline {
                let pid = self.pid();
                drop(self); // kills and reaps
                return Err(format!("child {pid} did not exit within {timeout:?}; killed"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Peak resident set size (`VmHWM`) of a live process, in MB.
pub fn vm_hwm_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 * 1e-6)
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

/// A file the CLI writes under `results/`, removed again on drop —
/// unless it was already there before this run, in which case it is
/// somebody else's and stays.
#[derive(Debug)]
pub struct Artefact {
    path: PathBuf,
    ours: bool,
}

impl Artefact {
    /// Registers `results/<name>` before the first CLI run writes it.
    pub fn claim(paths: &Paths, name: &str) -> Artefact {
        let path = paths.results.join(name);
        let ours = !path.exists();
        Artefact { path, ours }
    }

    /// Reads the artefact's bytes.
    pub fn read(&self) -> Result<Vec<u8>, String> {
        std::fs::read(&self.path).map_err(|e| format!("read {}: {e}", self.path.display()))
    }
}

impl Drop for Artefact {
    fn drop(&mut self) {
        if self.ours {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// A scratch directory under `benchmark/out/`, removed on drop.
#[derive(Debug)]
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// Creates `benchmark/out/tmp-<pid>-<tag>/` (emptying a stale one).
    pub fn create(paths: &Paths, tag: &str) -> Result<TempDir, String> {
        let dir = paths.out.join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
