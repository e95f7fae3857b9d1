// Randomized stress tests for the event queue: behavior is checked
// against a simple reference model (sorted vector), and determinism is
// verified across runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"

namespace {

using sinet::sim::EventQueue;
using sinet::sim::Rng;

/// Reference model: (time, id) pairs executed in (time, insertion) order.
struct RefModel {
  struct Entry {
    double time;
    int id;
    bool cancelled = false;
  };
  std::vector<Entry> entries;

  void schedule(double t, int id) { entries.push_back({t, id}); }
  bool cancel(int id) {
    for (Entry& e : entries)
      if (e.id == id && !e.cancelled) {
        e.cancelled = true;
        return true;
      }
    return false;
  }
  std::vector<int> execution_order() const {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < entries.size(); ++i)
      if (!entries[i].cancelled) idx.push_back(i);
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) {
                       return entries[a].time < entries[b].time;
                     });
    std::vector<int> order;
    for (const std::size_t i : idx) order.push_back(entries[i].id);
    return order;
  }
};

TEST(EventQueueStress, MatchesReferenceModelUnderRandomLoad) {
  for (const std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
    Rng rng(seed);
    EventQueue q;
    RefModel ref;
    std::vector<int> executed;
    std::vector<sinet::sim::EventHandle> handles;

    for (int i = 0; i < 400; ++i) {
      // Random times, deliberately with collisions (quantized grid).
      const double t = static_cast<double>(rng.uniform_int(0, 50));
      handles.push_back(
          q.schedule_at(t, [&executed, i] { executed.push_back(i); }));
      ref.schedule(t, i);
    }
    // Cancel a random third of them.
    for (int i = 0; i < 130; ++i) {
      const auto victim = static_cast<int>(rng.uniform_int(0, 399));
      const bool q_ok = q.cancel(handles[victim]);
      const bool ref_ok = ref.cancel(victim);
      EXPECT_EQ(q_ok, ref_ok) << "victim " << victim;
    }
    q.run_all();
    EXPECT_EQ(executed, ref.execution_order()) << "seed " << seed;
  }
}

TEST(EventQueueStress, ClockIsMonotonicThroughChainedSchedules) {
  EventQueue q;
  Rng rng(99);
  std::vector<double> observed;
  // Events that schedule more events at random future offsets.
  std::function<void(int)> spawn = [&](int depth) {
    observed.push_back(q.now());
    if (depth <= 0) return;
    const int fanout = static_cast<int>(rng.uniform_int(1, 2));
    for (int i = 0; i < fanout; ++i) {
      const double delay = rng.uniform(0.0, 5.0);
      q.schedule_in(delay, [&spawn, depth] { spawn(depth - 1); });
    }
  };
  q.schedule_at(0.0, [&spawn] { spawn(12); });
  q.run_all();
  for (std::size_t i = 1; i < observed.size(); ++i)
    EXPECT_GE(observed[i], observed[i - 1]);
  EXPECT_GT(observed.size(), 5u);
}

TEST(EventQueueStress, RunUntilInChunksEqualsRunAll) {
  auto build = [](EventQueue& q, std::vector<int>& order) {
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
      const double t = rng.uniform(0.0, 100.0);
      q.schedule_at(t, [&order, i] { order.push_back(i); });
    }
  };
  EventQueue q1, q2;
  std::vector<int> all_at_once, chunked;
  build(q1, all_at_once);
  build(q2, chunked);
  q1.run_all();
  for (double t = 10.0; t <= 110.0; t += 10.0) q2.run_until(t);
  EXPECT_EQ(all_at_once, chunked);
}

TEST(EventQueueStress, CancelDuringExecution) {
  EventQueue q;
  int fired = 0;
  sinet::sim::EventHandle later = 0;
  q.schedule_at(1.0, [&] {
    ++fired;
    q.cancel(later);  // cancel a not-yet-fired event from inside another
  });
  later = q.schedule_at(2.0, [&] { fired += 100; });
  q.schedule_at(3.0, [&] { ++fired; });
  q.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueStress, ManyEventsDrainCompletely) {
  EventQueue q;
  std::size_t count = 0;
  for (int i = 0; i < 20000; ++i)
    q.schedule_at(static_cast<double>(i % 777), [&count] { ++count; });
  EXPECT_EQ(q.pending(), 20000u);
  q.run_all();
  EXPECT_EQ(count, 20000u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueStress, MillionPendingEventsStayBoundedAndTruthful) {
  // Population-scale backstop: a million pending events, half of them
  // cancelled mid-flight. The memory gauge must track the bookkeeping
  // (entries + handle sets, no hidden per-event blowup) and empty() must
  // stay truthful through lazy tombstone purging.
  constexpr int kEvents = 1'000'000;
  EventQueue q;
  std::size_t fired = 0;
  std::vector<sinet::sim::EventHandle> handles;
  handles.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i)
    handles.push_back(q.schedule_at(static_cast<double>(i % 9973),
                                    [&fired] { ++fired; }));
  EXPECT_EQ(q.pending(), static_cast<std::size_t>(kEvents));
  EXPECT_EQ(q.max_pending(), static_cast<std::size_t>(kEvents));
  const std::size_t full_bytes = q.approx_memory_bytes();
  EXPECT_GT(full_bytes, static_cast<std::size_t>(kEvents) * 8);
  // Bookkeeping only: well under 1 KiB per pending event.
  EXPECT_LT(full_bytes, static_cast<std::size_t>(kEvents) * 1024);

  for (int i = 0; i < kEvents; i += 2) EXPECT_TRUE(q.cancel(handles[i]));
  EXPECT_EQ(q.pending(), static_cast<std::size_t>(kEvents) / 2);
  EXPECT_FALSE(q.empty());

  q.run_all();
  EXPECT_EQ(fired, static_cast<std::size_t>(kEvents) / 2);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
  // Tombstones and heap entries are gone after the drain.
  EXPECT_LT(q.approx_memory_bytes(), full_bytes / 4);
}

TEST(EventQueueStress, ChainKeepsOnePendingEntryForMillionTicks) {
  // The batching primitive behind the per-satellite timelines: a chain
  // of a million ticks holds ONE pending heap entry, not a million.
  constexpr std::size_t kTicks = 1'000'000;
  EventQueue q;
  std::vector<double> times;
  times.reserve(kTicks);
  for (std::size_t i = 0; i < kTicks; ++i)
    times.push_back(static_cast<double>(i) * 0.25);
  std::size_t visited = 0;
  bool in_order = true;
  q.schedule_chain(times, [&](std::size_t i) {
    in_order = in_order && (i == visited);
    ++visited;
  });
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.max_pending(), 1u);
  q.run_all();
  EXPECT_EQ(visited, kTicks);
  EXPECT_TRUE(in_order);
  EXPECT_EQ(q.max_pending(), 1u) << "a chain must never fan out";
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueStress, ChainReleasesVisitorWhenDrainedOrDestroyed) {
  // The visitor (and everything it captures) must be freed once the
  // chain can no longer fire: after its last link ran, and when the queue
  // is destroyed with a link still pending.
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  {
    EventQueue q;
    q.schedule_chain({1.0, 2.0, 3.0},
                     [held = token](std::size_t) { ++*held; });
    q.run_all();
    EXPECT_EQ(*token, 3);
  }
  token.reset();
  EXPECT_TRUE(watch.expired()) << "drained chain kept its visitor alive";

  auto pending_token = std::make_shared<int>(0);
  const std::weak_ptr<int> pending_watch = pending_token;
  {
    EventQueue q;
    q.schedule_chain({1.0, 2.0, 3.0},
                     [held = pending_token](std::size_t) { ++*held; });
    pending_token.reset();
    q.run_until(1.5);  // one link fired, the second is pending
    EXPECT_FALSE(pending_watch.expired());
  }
  EXPECT_TRUE(pending_watch.expired())
      << "destroyed queue kept a pending chain's visitor alive";
}

TEST(EventQueueStress, ChainRejectsUnsortedTimes) {
  EventQueue q;
  EXPECT_THROW(q.schedule_chain({2.0, 1.0}, [](std::size_t) {}),
               std::invalid_argument);
  EXPECT_EQ(q.schedule_chain({}, [](std::size_t) {}),
            sinet::sim::kInvalidEvent);
}

}  // namespace
