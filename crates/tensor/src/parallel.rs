//! A small data-parallel worker pool built on scoped threads.
//!
//! The crate forbids `unsafe`, so instead of a hand-rolled job queue with
//! raw-pointer erasure this module keeps a *persistent pool configuration*
//! (the global thread count) and materialises workers per parallel region
//! with [`std::thread::scope`]. Scoped threads borrow directly from the
//! caller's stack, which lets every kernel hand disjoint `&mut` output
//! chunks to workers without any `Arc`/`Mutex` traffic; spawn cost is a few
//! tens of microseconds per region, far below the kernel sizes that take
//! this path (see the thresholds in `matmul.rs`).
//!
//! Work is partitioned *statically*: the output is cut into fixed-size
//! chunks and chunk `i` always goes to worker `i % workers`. The grid of
//! chunks depends only on the problem shape — never on the thread count —
//! so every chunk is computed by exactly the same code path regardless of
//! how many workers run. That is what makes the threaded kernels
//! bit-identical across thread counts (asserted in
//! `crates/tensor/tests/kernels.rs`).
//!
//! Nested regions never oversubscribe: workers mark themselves with a
//! thread-local flag, and any parallel region entered from inside the pool
//! runs serially (e.g. a plane-parallel layer whose job calls the threaded
//! GEMM).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Minimum per-region work (multiply-accumulates, or element touches for
/// memory-bound layers) before a kernel asks for more than one worker; a
/// scoped-thread region costs a few tens of microseconds, so anything
/// smaller runs serially. ≈ a `64×128 · 128×64` GEMM.
pub(crate) const PAR_MIN_WORK: usize = 64 * 128 * 64;

/// Global pool width. Zero means "not set": fall back to the machine's
/// available parallelism.
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while the current thread is executing inside a parallel region,
    /// so nested regions degrade to serial instead of oversubscribing.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Sets the pool width for all subsequent parallel regions.
///
/// `0` restores the default (the machine's available parallelism). The CLI
/// exposes this as `--threads N`.
pub fn set_num_threads(n: usize) {
    NUM_THREADS.store(n, Ordering::Relaxed);
}

/// The pool width parallel regions will use (≥ 1).
pub fn num_threads() -> usize {
    match NUM_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Whether the current thread is already a pool worker.
pub(crate) fn in_parallel_region() -> bool {
    IN_POOL.with(Cell::get)
}

/// Runs `f` with the in-pool flag raised, restoring it afterwards.
fn with_pool_flag<R>(f: impl FnOnce() -> R) -> R {
    IN_POOL.with(|flag| {
        let prev = flag.replace(true);
        let out = f();
        flag.set(prev);
        out
    })
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the last
/// may be shorter) and calls `f(chunk_index, chunk, &mut state)` for every
/// chunk, distributing chunks round-robin over up to `max_threads` workers.
///
/// Each worker builds its own `state` with `init` once and reuses it across
/// all its chunks — kernels use this for scratch buffers (packed GEMM
/// panels) so scratch is allocated once per worker per region, not once
/// per item.
///
/// `max_threads` is the worker cap for this region; kernels pass
/// [`num_threads`] (or `1` below their size threshold) so the pool width
/// stays a caller-level policy. Runs serially (same chunk order, same code
/// path) when the cap is 1, when there is at most one chunk, or when called
/// from inside another parallel region.
///
/// # Panics
///
/// Panics if `chunk_len == 0` while `data` is non-empty.
pub(crate) fn for_each_chunk_with<T, S, G, F>(
    data: &mut [T],
    chunk_len: usize,
    max_threads: usize,
    init: G,
    f: F,
) where
    T: Send,
    G: Fn() -> S + Sync,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "for_each_chunk_with: zero chunk length");
    let n_chunks = data.len().div_ceil(chunk_len);
    let workers = max_threads.min(n_chunks).max(1);
    if workers == 1 || in_parallel_region() {
        let mut state = init();
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk, &mut state);
        }
        return;
    }
    // Static round-robin assignment: chunk i -> worker i % workers. The
    // chunk grid depends only on (len, chunk_len), so results cannot depend
    // on the worker count.
    let mut buckets: Vec<Vec<(usize, &mut [T])>> = (0..workers)
        .map(|_| Vec::with_capacity(n_chunks / workers + 1))
        .collect();
    for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
        buckets[i % workers].push((i, chunk));
    }
    let run_bucket = |bucket: Vec<(usize, &mut [T])>| {
        with_pool_flag(|| {
            let mut state = init();
            for (i, chunk) in bucket {
                f(i, chunk, &mut state);
            }
        });
    };
    let mut buckets = buckets.into_iter();
    let own = buckets.next().expect("workers >= 1");
    std::thread::scope(|scope| {
        for bucket in buckets {
            scope.spawn(|| run_bucket(bucket));
        }
        // The calling thread is worker 0 rather than idling on the join.
        run_bucket(own);
    });
}

/// [`for_each_chunk_with`] without per-worker state.
pub(crate) fn for_each_chunk<T, F>(data: &mut [T], chunk_len: usize, max_threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    for_each_chunk_with(
        data,
        chunk_len,
        max_threads,
        || (),
        |i, chunk, ()| f(i, chunk),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_chunk_exactly_once() {
        let mut data = vec![0_u32; 103];
        for_each_chunk(&mut data, 10, 4, |i, chunk| {
            for v in chunk.iter_mut() {
                *v += 1 + i as u32;
            }
        });
        for (pos, &v) in data.iter().enumerate() {
            assert_eq!(v, 1 + (pos / 10) as u32, "element {pos}");
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let work = |threads: usize| {
            let mut data: Vec<f32> = (0..997).map(|i| i as f32).collect();
            for_each_chunk(&mut data, 64, threads, |i, chunk| {
                for v in chunk.iter_mut() {
                    *v = v.sin() * (i as f32 + 1.0);
                }
            });
            data
        };
        let serial = work(1);
        for threads in [2, 3, 8] {
            let par = work(threads);
            assert!(serial
                .iter()
                .zip(&par)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn per_worker_state_is_reused_not_shared() {
        let mut data = vec![0_usize; 40];
        for_each_chunk_with(
            &mut data,
            4,
            3,
            || 0_usize,
            |_, chunk, seen| {
                *seen += 1;
                for v in chunk.iter_mut() {
                    *v = *seen;
                }
            },
        );
        // Every chunk got a strictly positive per-worker counter, and no
        // worker saw more chunks than exist in total.
        assert!(data.iter().all(|&v| (1..=10).contains(&v)));
    }

    #[test]
    fn nested_regions_run_serially() {
        let mut outer = vec![0_u8; 8];
        for_each_chunk(&mut outer, 1, 8, |_, chunk| {
            assert!(in_parallel_region());
            let mut inner = vec![0_u8; 4];
            // Must not deadlock or oversubscribe; just runs inline.
            for_each_chunk(&mut inner, 1, 8, |_, c| c[0] += 1);
            chunk[0] = inner.iter().sum();
        });
        assert!(outer.iter().all(|&v| v == 4));
    }

    #[test]
    fn thread_count_override_roundtrip() {
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn empty_and_oversized_chunks() {
        let mut empty: Vec<u8> = Vec::new();
        for_each_chunk(&mut empty, 10, 4, |_, _| panic!("no chunks expected"));
        let mut one = vec![7_u8; 3];
        for_each_chunk(&mut one, 100, 4, |i, chunk| {
            assert_eq!(i, 0);
            assert_eq!(chunk.len(), 3);
        });
    }
}
