// Deterministic thread-pool parallelism.
//
// Every hot path in the pipeline — Monte-Carlo fleet simulation, bagged
// forest fitting, bootstrap replication, partial-dependence grids — is
// embarrassingly parallel, and every one of them is required to produce
// BIT-IDENTICAL output regardless of thread count. The contract that makes
// that possible:
//
//   * Work is partitioned into chunks by INDEX, never by thread. A chunk's
//     result depends only on its index (callers derive any randomness from
//     a `(base_seed, unit_index)` Rng::split, see rng.hpp), so the
//     assignment of chunks to threads is pure scheduling.
//   * Bodies write to disjoint, pre-sized output slots. Any order-sensitive
//     reduction (floating-point sums, concatenation) happens serially, in
//     index order, after the parallel region completes.
//
// Thread-count control, in precedence order:
//   1. `set_num_threads(n)` — explicit API; 0 and 1 both pin serial
//      execution (no pool involvement at all, so tests and debuggers can
//      force either mode). `clear_thread_override()` undoes it.
//   2. `RAINSHINE_THREADS` environment variable, same 0/1 ⇒ serial rule.
//   3. `std::thread::hardware_concurrency()`.
//
// The pool is lazily created on first parallel call and owns
// `num_threads() - 1` workers (the calling thread participates). Regions
// started from different threads run side by side: each caller drains its
// own chunks, and an idle worker helps the oldest region that still has an
// unclaimed chunk. So a region never waits on another region's chunks (a
// `/score` predict does not queue behind a forest fit), and a chunk may
// itself wait for another thread's region. Nested `parallel_for` calls from
// inside a parallel region run serially inline, so composed parallel code
// (e.g. a forest's partial dependence calling the per-tree grid) cannot
// deadlock or oversubscribe.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace rainshine::util {

/// Hardware thread count as reported by the standard library; never 0.
[[nodiscard]] std::size_t hardware_threads() noexcept;

/// Thread count from RAINSHINE_THREADS / hardware, ignoring any
/// `set_num_threads` override; never 0 (0/1 in the env both mean serial).
[[nodiscard]] std::size_t default_num_threads() noexcept;

/// Effective thread count parallel regions will use; never 0.
[[nodiscard]] std::size_t num_threads() noexcept;

/// Pins the thread count. 0 and 1 both force serial execution; n >= 2 uses
/// exactly n threads (the caller plus n-1 pool workers).
void set_num_threads(std::size_t n) noexcept;

/// Removes the `set_num_threads` pin, returning control to
/// RAINSHINE_THREADS / hardware detection.
void clear_thread_override() noexcept;

/// Runs `body(begin, end)` over a partition of [0, n) into contiguous
/// half-open chunks of at most `chunk` indices (0 ⇒ an automatic size of
/// roughly n / (4 * num_threads())). Chunks are dispatched to the pool and
/// the calling thread; the call blocks until every chunk completed. The
/// first exception thrown by any chunk is rethrown on the caller after the
/// region drains. Serial when num_threads() <= 1, when n is tiny, or when
/// already inside a parallel region — chunk boundaries are identical either
/// way, so `body` sees the same (begin, end) pairs in every mode.
void parallel_for(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// `out[i] = fn(i)` for i in [0, n), computed in parallel. Results land in
/// index order no matter how chunks were scheduled. `fn`'s result type only
/// needs to be movable (not default-constructible).
template <typename Fn>
[[nodiscard]] auto parallel_map(std::size_t n, Fn&& fn) {
  using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<std::optional<R>> slots(n);
  parallel_for(n, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) slots[i].emplace(fn(i));
  });
  std::vector<R> out;
  out.reserve(n);
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace rainshine::util
