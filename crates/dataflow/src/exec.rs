//! Host execution backend: run independent work units on real threads.
//!
//! The simulated cluster models *virtual* time; this module decides how
//! the actual Rust closures behind each stage execute on the host. The
//! contract every caller relies on:
//!
//! **Determinism / bit-exactness.** [`Executor::run`] applies `f` to each
//! item independently and returns results **in item order**, regardless
//! of which thread computed what or when. As long as `f(i, item)` is a
//! pure function of its arguments (every kernel in this workspace is),
//! `ExecMode::Threads(n)` produces bit-identical output to
//! `ExecMode::Sequential` for every `n` — threads only change *wall*
//! time, never a single bit of the result. Reductions that combine the
//! per-item results must merge them in fixed item order for the same
//! guarantee to extend end-to-end; see DESIGN.md §9.

use crate::{DataflowError, Result};
use scoped_pool::Pool;

/// How the host executes the real computation behind stages: on the
/// calling thread, or spread over a reusable thread pool.
///
/// Orthogonal to [`crate::Platform`]: `Platform` changes what the
/// *simulation* charges (Spark vs MapReduce semantics), `ExecMode`
/// changes how fast the host finishes the identical arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Everything on the calling thread, in item order.
    Sequential,
    /// Work units spread over a pool of this many threads. `Threads(0)`
    /// and `Threads(1)` behave like `Sequential`.
    Threads(usize),
}

impl ExecMode {
    /// The one spelling of the thread-count rule, shared by the
    /// `DISTENC_THREADS` variable and the CLI's `--threads`: `0` or `1`
    /// mean [`ExecMode::Sequential`], `n ≥ 2` means
    /// [`ExecMode::Threads`]`(n)`, and anything else is
    /// [`DataflowError::BadThreadCount`] — a typo must not silently turn
    /// a "threaded" run into a sequential one.
    pub fn parse(raw: &str) -> Result<ExecMode> {
        match raw.trim().parse::<usize>() {
            Ok(n) if n >= 2 => Ok(ExecMode::Threads(n)),
            Ok(_) => Ok(ExecMode::Sequential),
            Err(_) => Err(DataflowError::BadThreadCount(raw.to_string())),
        }
    }

    /// The mode the `DISTENC_THREADS` environment variable asks for;
    /// unset means a thread per host core, or sequential on one. This is
    /// the only place the workspace reads the environment: `ci.sh` uses
    /// the variable to run the whole test suite under both backends
    /// without touching any test. The CLI calls this once at start-up so
    /// a bad value is a typed error there, before any
    /// [`ExecMode::default`] can panic.
    pub fn from_env() -> Result<ExecMode> {
        match std::env::var("DISTENC_THREADS") {
            Ok(raw) => ExecMode::parse(&raw),
            Err(std::env::VarError::NotPresent) => Ok(ExecMode::host()),
            Err(std::env::VarError::NotUnicode(raw)) => {
                Err(DataflowError::BadThreadCount(raw.to_string_lossy().into_owned()))
            }
        }
    }

    /// A thread per core of this host (`available_parallelism`), or
    /// [`ExecMode::Sequential`] on one core: what an unset
    /// `DISTENC_THREADS` means. Which executor runs never changes a bit.
    fn host() -> ExecMode {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores >= 2 {
            ExecMode::Threads(cores)
        } else {
            ExecMode::Sequential
        }
    }

    /// Worker count this mode implies (`Sequential` → 1).
    pub fn threads(self) -> usize {
        match self {
            ExecMode::Sequential => 1,
            ExecMode::Threads(n) => n.max(1),
        }
    }
}

/// The default mode comes from the environment (see
/// [`ExecMode::from_env`]) — the host's cores when `DISTENC_THREADS` is
/// unset — so `DISTENC_THREADS=4 cargo test` exercises a four-thread pool
/// and `=1` the sequential path across the entire suite.
///
/// # Panics
/// If `DISTENC_THREADS` is set to something [`ExecMode::parse`] rejects:
/// under `cargo test` that is a loud failure instead of a "threaded"
/// sweep that silently ran sequentially.
impl Default for ExecMode {
    fn default() -> Self {
        ExecMode::from_env().unwrap_or_else(|e| panic!("DISTENC_THREADS: {e}"))
    }
}

/// A reusable executor bound to an [`ExecMode`]. Cheap to create in
/// `Sequential` mode; `Threads(n)` spawns its pool once, up front: `n − 1`
/// workers, with the calling thread as the `n`th.
///
/// Dispatch is allocation-free: multi-item batches go through
/// `Pool::run_indexed`, which shares one borrowed closure and has the
/// workers and the caller claim item indices from one pool-resident
/// counter — no per-item job boxes. Between batches the workers spin for
/// at most as long as the pool's last batch took, so a solve's next sweep
/// finds them on their cores, then park; while the live pools together
/// are wider than the host's cores they park at once. Single-item
/// batches, `Threads(≤1)`, and single-core hosts (see
/// [`Executor::parallelism`]) run inline on the caller's stack.
#[derive(Debug)]
pub struct Executor {
    pool: Option<Pool>,
    /// Host cores available at construction time
    /// (`std::thread::available_parallelism`, 1 on error).
    host: usize,
}

impl Executor {
    /// Build an executor (spawning the pool for `Threads(n ≥ 2)`).
    pub fn new(mode: ExecMode) -> Executor {
        let pool = match mode.threads() {
            0 | 1 => None,
            n => Some(Pool::new(n)),
        };
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        Executor { pool, host }
    }

    /// Number of host threads used, the caller included (1 when
    /// sequential).
    pub(crate) fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, Pool::threads)
    }

    /// Concurrency the host can actually deliver: the configured worker
    /// count clamped to `available_parallelism`. Size chunk counts from
    /// this, not [`Executor::threads`] — splitting work into more chunks
    /// than the host has cores buys no concurrency and pays dispatch
    /// overhead per chunk (the oversplit pessimization BENCH_parallel.json
    /// measured: `--threads 8` on a 1-core host ran ~12% slower than
    /// sequential). Any chunk count is bit-exact; this only affects speed.
    pub fn parallelism(&self) -> usize {
        self.threads().min(self.host)
    }

    /// Whether batches should be dispatched to the pool at all: with one
    /// usable core the pool's workers only take turns with the caller, so
    /// everything runs inline (bit-identical either way).
    #[inline]
    fn inline_only(&self) -> bool {
        self.pool.is_none() || self.host == 1
    }

    /// Apply `f` to every item, returning the results **in item order**.
    /// Items are independent work units; `f` must not rely on execution
    /// order across items (it cannot: it only gets `&T`).
    pub fn run<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.inline_only() || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        self.run_mut(&mut out, |i, slot| *slot = Some(f(i, &items[i])));
        out.into_iter()
            .map(|r| r.expect("broadcast task completed"))
            .collect()
    }

    /// Apply `f` to every item in place. Same ordering guarantee as
    /// [`Executor::run`]: each item is touched exactly once, by exactly
    /// one thread, with no cross-item interaction.
    pub fn run_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        if self.inline_only() || items.len() <= 1 {
            for (i, t) in items.iter_mut().enumerate() {
                f(i, t);
            }
            return;
        }
        let pool = self.pool.as_ref().expect("inline_only is false");
        // Hand each claimed index a disjoint `&mut` into the slice. The
        // wrapper restores `Sync` for the raw base pointer; soundness
        // rests on `run_indexed` claiming each index exactly once.
        struct Base<T>(*mut T);
        unsafe impl<T: Send> Sync for Base<T> {}
        let base = Base(items.as_mut_ptr());
        let f = &f;
        pool.run_indexed(items.len(), &move |i| {
            let base = &base;
            // SAFETY: `i < items.len()` and each index is claimed by
            // exactly one worker, so this `&mut` aliases nothing.
            let item = unsafe { &mut *base.0.add(i) };
            f(i, item);
        });
    }
}

/// Split `len` items into at most `parts` contiguous half-open ranges of
/// near-equal size (the trailing ranges are one shorter when `len` does
/// not divide evenly). Useful for chunking element-wise kernels where any
/// blocking is bit-exact.
pub fn even_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1).min(len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_is_the_thread_count_rule() {
        assert_eq!(ExecMode::parse("0"), Ok(ExecMode::Sequential));
        assert_eq!(ExecMode::parse("1"), Ok(ExecMode::Sequential));
        assert_eq!(ExecMode::parse(" 6 "), Ok(ExecMode::Threads(6)));
        for typo in ["", "4x", "-1", "two", "2.0"] {
            assert_eq!(
                ExecMode::parse(typo),
                Err(DataflowError::BadThreadCount(typo.to_string())),
                "`{typo}` must be rejected, not read as sequential"
            );
        }
        assert_eq!(ExecMode::Sequential.threads(), 1);
        assert_eq!(ExecMode::Threads(0).threads(), 1);
        assert_eq!(ExecMode::Threads(1).threads(), 1);
        assert_eq!(ExecMode::Threads(6).threads(), 6);
    }

    #[test]
    fn host_mode_is_a_thread_per_core_or_sequential_on_one() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let want = if cores >= 2 { ExecMode::Threads(cores) } else { ExecMode::Sequential };
        assert_eq!(ExecMode::host(), want);
        assert_eq!(ExecMode::host().threads(), cores);
        assert_eq!(Executor::new(ExecMode::host()).parallelism(), cores);
    }

    #[test]
    fn sequential_and_threaded_agree_in_order() {
        let items: Vec<u64> = (0..257).collect();
        let seq = Executor::new(ExecMode::Sequential);
        let par = Executor::new(ExecMode::Threads(4));
        let f = |i: usize, x: &u64| (i as u64) * 1_000_003 + x * x;
        assert_eq!(seq.run(&items, f), par.run(&items, f));
    }

    #[test]
    fn run_mut_touches_each_item_once() {
        let mut a: Vec<usize> = vec![0; 100];
        let mut b = a.clone();
        Executor::new(ExecMode::Sequential).run_mut(&mut a, |i, x| *x = i + 1);
        Executor::new(ExecMode::Threads(3)).run_mut(&mut b, |i, x| *x = i + 1);
        assert_eq!(a, b);
        assert_eq!(a[99], 100);
    }

    #[test]
    fn threads_one_does_not_spawn_a_pool() {
        assert_eq!(Executor::new(ExecMode::Threads(1)).threads(), 1);
        assert_eq!(Executor::new(ExecMode::Threads(0)).threads(), 1);
        assert_eq!(Executor::new(ExecMode::Threads(2)).threads(), 2);
    }

    #[test]
    fn parallelism_clamps_to_host_cores() {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(Executor::new(ExecMode::Sequential).parallelism(), 1);
        assert_eq!(Executor::new(ExecMode::Threads(2)).parallelism(), 2.min(host));
        let wide = Executor::new(ExecMode::Threads(1024));
        assert_eq!(wide.parallelism(), host, "oversubscription is clamped");
        assert_eq!(wide.threads(), 1024, "threads() still reports the request");
    }

    #[test]
    fn even_ranges_cover_exactly() {
        for (len, parts) in [(10, 3), (0, 4), (5, 8), (100, 1), (7, 7)] {
            let ranges = even_ranges(len, parts);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, len, "len {len} parts {parts}");
            if len > 0 {
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(mx - mn <= 1, "near-equal sizes: {sizes:?}");
            }
        }
    }
}
