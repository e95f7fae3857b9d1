// Dependency-graph executor for ordered events over shared resources.
//
// A simulation whose events each mutate a known set of resources (the
// parallel DtS engine: a satellite plus the ground locations inside its
// footprint at one beacon slot) can run events concurrently as long as
// every resource still sees its events in the serial order. EventGraph
// takes the events in that serial (global) order together with their
// resource sets, links each event to the previous event on each of its
// resources, and runs them on a ThreadPool: an event becomes ready once
// every predecessor has finished, and ready events are dispatched lowest
// global index first. If events only mutate the resources they declare,
// the result equals serial execution for any thread count.
//
// The graph is stored as flat CSR (compressed sparse row) arrays: per
// event an offset into one resource array, and per (event, resource)
// entry the next event on that resource. Finishing an event releases
// one dependency of each of those next events, so no separate
// predecessor or successor lists are kept.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace sinet::sim {

class ThreadPool;

class EventGraph {
 public:
  /// `resource_count` fixes the resource universe [0, resource_count).
  explicit EventGraph(std::uint32_t resource_count);

  /// Append the next event in serial order. `resources` must be distinct
  /// and inside the universe (throws std::out_of_range otherwise); they
  /// are stored in the given order.
  void add_event(std::span<const std::uint32_t> resources);

  [[nodiscard]] std::size_t size() const noexcept {
    return res_begin_.size() - 1;
  }

  /// Resources of event `e`, in the order add_event received them.
  [[nodiscard]] std::span<const std::uint32_t> resources(
      std::size_t e) const noexcept {
    return {res_.data() + res_begin_[e], res_.data() + res_begin_[e + 1]};
  }

  /// Events on the longest dependency chain (0 for an empty graph). The
  /// speedup over serial execution cannot exceed size() / critical_path().
  [[nodiscard]] std::size_t critical_path() const noexcept {
    return critical_path_;
  }

  /// Run body(e) once for every event. With `pool` == nullptr or a
  /// 1-worker pool the events run inline in serial order. Otherwise one
  /// dispatch loop per pool worker runs through ThreadPool::parallel_for,
  /// so the call is nesting-safe: from inside a task of a fully busy (or
  /// 1-thread) pool the calling worker runs the loops itself. If a body
  /// throws, no further event starts, the loops waiting for ready events
  /// are released, and the first exception observed is rethrown here
  /// once every running body has returned.
  void run(ThreadPool* pool,
           const std::function<void(std::size_t)>& body) const;

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  std::uint32_t resource_count_;
  std::vector<std::uint32_t> res_begin_{0};
  std::vector<std::uint32_t> res_;
  /// next_[k]: the event after event-of-k on resource res_[k], or kNone.
  std::vector<std::uint32_t> next_;
  /// Resources of each event that an earlier event touched: the number of
  /// releases the event waits for.
  std::vector<std::uint32_t> waits_;
  // Build-time state per resource: its last entry in res_ and the
  // longest chain ending at its last event.
  std::vector<std::uint32_t> last_entry_;
  std::vector<std::uint32_t> depth_;
  std::size_t critical_path_ = 0;
};

}  // namespace sinet::sim
