#include "sim/event_graph.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <stdexcept>

#include "sim/thread_pool.h"

namespace sinet::sim {

EventGraph::EventGraph(std::uint32_t resource_count)
    : resource_count_(resource_count),
      last_entry_(resource_count, kNone),
      depth_(resource_count, 0) {}

void EventGraph::add_event(std::span<const std::uint32_t> resources) {
  for (std::size_t i = 0; i < resources.size(); ++i) {
    if (resources[i] >= resource_count_)
      throw std::out_of_range("EventGraph: resource out of range");
    const auto seen = resources.begin() + static_cast<std::ptrdiff_t>(i);
    if (std::find(resources.begin(), seen, resources[i]) != seen)
      throw std::out_of_range("EventGraph: duplicate resource");
  }
  const auto e = static_cast<std::uint32_t>(size());
  std::uint32_t depth = 0;
  std::uint32_t waits = 0;
  for (const std::uint32_t r : resources) {
    depth = std::max(depth, depth_[r]);
    if (last_entry_[r] != kNone) {
      next_[last_entry_[r]] = e;
      ++waits;
    }
    last_entry_[r] = static_cast<std::uint32_t>(res_.size());
    res_.push_back(r);
    next_.push_back(kNone);
  }
  for (const std::uint32_t r : resources) depth_[r] = depth + 1;
  res_begin_.push_back(static_cast<std::uint32_t>(res_.size()));
  waits_.push_back(waits);
  critical_path_ = std::max<std::size_t>(critical_path_, depth + 1);
}

void EventGraph::run(ThreadPool* pool,
                     const std::function<void(std::size_t)>& body) const {
  const std::size_t n = size();
  if (pool == nullptr || pool->size() <= 1) {
    for (std::size_t e = 0; e < n; ++e) body(e);
    return;
  }

  std::vector<std::uint32_t> pending = waits_;
  std::mutex mutex;
  std::condition_variable cv;
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<>>
      ready;  // min-heap: lowest global index first
  std::size_t done = 0;
  bool failed = false;
  std::exception_ptr error;
  for (std::size_t e = 0; e < n; ++e)
    if (pending[e] == 0) ready.push(static_cast<std::uint32_t>(e));

  const auto dispatch = [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      // With nothing ready and events left, some event is running on
      // another loop (the graph is acyclic), and its completion or
      // failure notifies.
      cv.wait(lock, [&] { return failed || done == n || !ready.empty(); });
      if (failed || done == n) return;
      const std::uint32_t e = ready.top();
      ready.pop();
      lock.unlock();
      try {
        body(e);
      } catch (...) {
        lock.lock();
        if (!failed) error = std::current_exception();
        failed = true;
        cv.notify_all();
        return;
      }
      lock.lock();
      ++done;
      std::size_t woken = 0;
      for (std::uint32_t k = res_begin_[e]; k < res_begin_[e + 1]; ++k) {
        const std::uint32_t next = next_[k];
        if (next != kNone && --pending[next] == 0) {
          ready.push(next);
          ++woken;
        }
      }
      // This loop takes one of the woken events itself.
      if (done == n)
        cv.notify_all();
      else
        for (std::size_t k = 1; k < woken; ++k) cv.notify_one();
    }
  };
  pool->parallel_for(pool->size(), dispatch);
  if (error) std::rethrow_exception(error);
}

}  // namespace sinet::sim
