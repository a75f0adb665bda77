//! `--sample-out FILE`: a sampling CPU profile of one in-process run.
//!
//! A `SIGPROF` interval timer (`setitimer(ITIMER_PROF)`, which counts the
//! process's CPU time, every thread's) interrupts the run at most once per
//! millisecond of CPU (the kernel checks the timer at its tick: a 250 Hz
//! kernel samples every 4 ms); the handler records the interrupted instruction
//! pointer into a fixed static buffer, nothing else, so it is
//! async-signal-safe and costs the run nothing between samples. When the
//! run ends the addresses inside the executable are made relative to its
//! load address and written with their counts; `scripts/samples.py`
//! symbolizes them (`addr2line -f -i -C`, so inlined frames count) into
//! per-function and per-layer shares and the hottest instructions
//! (DESIGN.md §14). An interrupt lands after the instruction that was
//! executing, so a stall shows on the instruction that follows it.
//!
//! The system calls are declared here (`extern "C"` against the C
//! library), for Linux on x86_64 only; elsewhere [`Profiler::start`]
//! refuses.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Sampling period of CPU time.
const INTERVAL_US: i64 = 1_000;
/// Samples the buffer holds (2 MiB of `.bss`, touched only as filled):
/// about 260 s of CPU at [`INTERVAL_US`]; later ones are counted as dropped.
const CAP: usize = 1 << 18;

static SAMPLES: [AtomicU64; CAP] = [const { AtomicU64::new(0) }; CAP];
static TAKEN: AtomicUsize = AtomicUsize::new(0);
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// A running profile; [`Profiler::finish`] stops it and writes the file.
pub(crate) struct Profiler {
    path: String,
}

impl Profiler {
    /// Start sampling this process into `path` (written by `finish`).
    /// One profiler per process at a time.
    pub(crate) fn start(path: &str) -> Result<Profiler, String> {
        if ACTIVE.swap(true, Relaxed) {
            return Err("a profiler is already running in this process".to_string());
        }
        TAKEN.store(0, Relaxed);
        if let Err(e) = sys::arm(INTERVAL_US) {
            ACTIVE.store(false, Relaxed);
            return Err(e);
        }
        Ok(Profiler { path: path.to_string() })
    }

    /// Stop sampling and write the profile; returns the sample count.
    pub(crate) fn finish(self) -> Result<u64, String> {
        sys::disarm();
        let taken = TAKEN.load(Relaxed);
        let rips: Vec<u64> = SAMPLES[..taken.min(CAP)].iter().map(|s| s.load(Relaxed)).collect();
        let text = render(&rips, (taken - rips.len()) as u64, &exe_image()?);
        std::fs::write(&self.path, text)
            .map_err(|e| format!("cannot write sample file `{}`: {e}", self.path))?;
        Ok(taken as u64)
    }
}

/// Dropped unfinished (a failed run), the profiler still stops.
impl Drop for Profiler {
    fn drop(&mut self) {
        sys::disarm();
        ACTIVE.store(false, Relaxed);
    }
}

/// Where the executable is mapped: its path, the ranges of its mappings
/// and the bias to subtract for the addresses `addr2line` expects.
struct Image {
    path: String,
    ranges: Vec<(u64, u64)>,
    bias: u64,
}

/// Find this executable in `/proc/self/maps`. A position-independent
/// executable (ELF type `ET_DYN`) is biased by the start of its
/// offset-0 mapping; a fixed-address one (`ET_EXEC`) is not.
fn exe_image() -> Result<Image, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let path = exe.to_string_lossy().into_owned();
    let maps = std::fs::read_to_string("/proc/self/maps")
        .map_err(|e| format!("cannot read /proc/self/maps: {e}"))?;
    let (mut ranges, mut base) = (Vec::new(), None);
    for line in maps.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 6 || f[5..].join(" ") != path {
            continue;
        }
        let Some((lo, hi)) = f[0].split_once('-') else { continue };
        let hex = |s: &str| u64::from_str_radix(s, 16).ok();
        let (Some(lo), Some(hi), Some(off)) = (hex(lo), hex(hi), hex(f[2])) else { continue };
        ranges.push((lo, hi));
        if off == 0 {
            base = Some(base.map_or(lo, |b: u64| b.min(lo)));
        }
    }
    // The ELF header's `e_type` is the little-endian u16 at offset 16.
    let mut head = [0u8; 18];
    std::fs::File::open(&exe)
        .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut head))
        .map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let pie = head[16..] == [3, 0];
    let bias = if pie { base.ok_or(format!("`{path}` is not in /proc/self/maps"))? } else { 0 };
    Ok(Image { path, ranges, bias })
}

/// The sample file: a `#` header, then one `offset count` line per
/// distinct executable-relative address, most frequent first.
fn render(rips: &[u64], dropped: u64, image: &Image) -> String {
    let mut counts = std::collections::HashMap::<u64, u64>::new();
    let mut outside = 0u64;
    for &rip in rips {
        if image.ranges.iter().any(|&(lo, hi)| (lo..hi).contains(&rip)) {
            *counts.entry(rip - image.bias).or_default() += 1;
        } else {
            outside += 1;
        }
    }
    let mut rows: Vec<(u64, u64)> = counts.into_iter().collect();
    rows.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut out = format!(
        "# union-exp samples\n# exe {}\n# interval_us {INTERVAL_US}\n\
         # samples {} outside {outside} dropped {dropped}\n",
        image.path,
        rips.len()
    );
    for (addr, n) in rows {
        out.push_str(&format!("{addr:#x} {n}\n"));
    }
    out
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use super::{CAP, SAMPLES, TAKEN};
    use std::os::raw::{c_int, c_long, c_void};
    use std::sync::atomic::Ordering::Relaxed;

    const SIGPROF: c_int = 27;
    const ITIMER_PROF: c_int = 2;
    const SA_SIGINFO: c_int = 4;
    const SA_RESTART: c_int = 0x1000_0000;
    const SIG_IGN: usize = 1;
    /// Offset of `uc_mcontext.gregs[REG_RIP]` in the x86_64 `ucontext_t`:
    /// `uc_flags` and `uc_link` (8 B each) and `stack_t` (24 B) precede
    /// the register array, and `REG_RIP` is register 16.
    const RIP_OFFSET: usize = 8 + 8 + 24 + 16 * 8;

    #[repr(C)]
    struct Timeval {
        tv_sec: c_long,
        tv_usec: c_long,
    }

    #[repr(C)]
    struct Itimerval {
        interval: Timeval,
        value: Timeval,
    }

    /// The C library's `struct sigaction` on x86_64 Linux.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: c_int,
        restorer: usize,
    }

    extern "C" {
        fn sigaction(sig: c_int, act: *const SigAction, old: *mut SigAction) -> c_int;
        fn setitimer(which: c_int, new: *const Itimerval, old: *mut Itimerval) -> c_int;
    }

    /// Record the interrupted instruction pointer; nothing else.
    extern "C" fn on_sigprof(_sig: c_int, _info: *mut c_void, ctx: *mut c_void) {
        // SAFETY: an SA_SIGINFO handler's third argument is the
        // interrupted thread's `ucontext_t`.
        let rip = unsafe { ctx.cast::<u8>().add(RIP_OFFSET).cast::<u64>().read_unaligned() };
        let i = TAKEN.fetch_add(1, Relaxed);
        if i < CAP {
            SAMPLES[i].store(rip, Relaxed);
        }
    }

    fn set_handler(handler: usize, flags: c_int) -> bool {
        let act = SigAction { handler, mask: [0; 16], flags, restorer: 0 };
        // SAFETY: `act` is a valid `struct sigaction`; the old one is not wanted.
        unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) == 0 }
    }

    fn set_timer(us: i64) -> bool {
        let tv =
            || Timeval { tv_sec: (us / 1_000_000) as c_long, tv_usec: (us % 1_000_000) as c_long };
        let it = Itimerval { interval: tv(), value: tv() };
        // SAFETY: `it` is a valid `struct itimerval`; the old one is not wanted.
        unsafe { setitimer(ITIMER_PROF, &it, std::ptr::null_mut()) == 0 }
    }

    pub(super) fn arm(interval_us: i64) -> Result<(), String> {
        let handler = on_sigprof as extern "C" fn(c_int, *mut c_void, *mut c_void) as usize;
        if !set_handler(handler, SA_SIGINFO | SA_RESTART) || !set_timer(interval_us) {
            disarm();
            return Err("cannot start the SIGPROF profiler".to_string());
        }
        Ok(())
    }

    /// Stop the timer, then ignore a signal still in flight (its default
    /// action ends the process).
    pub(super) fn disarm() {
        set_timer(0);
        set_handler(SIG_IGN, 0);
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    pub(super) fn arm(_interval_us: i64) -> Result<(), String> {
        Err("--sample-out needs Linux on x86_64".to_string())
    }

    pub(super) fn disarm() {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_counts_inside_addresses_relative_to_the_bias() {
        let image =
            Image { path: "/bin/x".to_string(), ranges: vec![(0x1000, 0x3000)], bias: 0x1000 };
        let text = render(&[0x1010, 0x2000, 0x1010, 0x9000], 2, &image);
        let want = "# union-exp samples\n# exe /bin/x\n# interval_us 1000\n\
                    # samples 4 outside 1 dropped 2\n0x10 2\n0x1000 1\n";
        assert_eq!(text, want);
    }

    /// A short busy loop under the real timer yields samples inside this
    /// test binary.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn sampling_a_busy_loop_lands_in_the_executable() {
        let path = std::env::temp_dir().join(format!("samples-{}.txt", std::process::id()));
        let s = Profiler::start(path.to_str().unwrap()).expect("profiler starts");
        assert!(Profiler::start("/dev/null").is_err(), "one profiler at a time");
        let t0 = std::time::Instant::now();
        let mut x = 1u64;
        while t0.elapsed().as_millis() < 300 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let n = s.finish().expect("profile written");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(n > 10, "{n} samples in 300 ms of CPU");
        let rows = text.lines().filter(|l| !l.starts_with('#')).count();
        assert!(rows > 0, "no sample inside the executable:\n{text}");
    }
}
