// Unit tests for the discrete-event engine, coroutine tasks, synchronization
// primitives, trace analysis, and run statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cpufree/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace {

using sim::Barrier;
using sim::Cat;
using sim::Channel;
using sim::Cmp;
using sim::Engine;
using sim::Flag;
using sim::Nanos;
using sim::RunStats;
using sim::Semaphore;
using sim::Task;

TEST(Time, Conversions) {
  EXPECT_EQ(sim::usec(1.0), 1000);
  EXPECT_EQ(sim::usec(0.5), 500);
  EXPECT_EQ(sim::msec(2.0), 2'000'000);
  EXPECT_EQ(sim::sec(1.0), 1'000'000'000);
  EXPECT_DOUBLE_EQ(sim::to_usec(1500), 1.5);
  EXPECT_DOUBLE_EQ(sim::to_sec(2'000'000'000), 2.0);
}

TEST(Engine, DelayAdvancesSimulatedTime) {
  Engine eng;
  Nanos observed = -1;
  eng.spawn([](Engine& e, Nanos& out) -> Task {
    co_await e.delay(sim::usec(5));
    out = e.now();
  }(eng, observed));
  eng.run();
  EXPECT_EQ(observed, 5000);
  EXPECT_EQ(eng.now(), 5000);
}

TEST(Engine, EventsOrderedByTimeThenFifo) {
  Engine eng;
  std::vector<int> order;
  auto proc = [](Engine& e, std::vector<int>& ord, int id, Nanos d) -> Task {
    co_await e.delay(d);
    ord.push_back(id);
  };
  // Same timestamps must resolve in spawn (FIFO) order.
  eng.spawn(proc(eng, order, 1, 100));
  eng.spawn(proc(eng, order, 2, 100));
  eng.spawn(proc(eng, order, 3, 50));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
}

TEST(Engine, NestedTaskResumesParentAtChildCompletionTime) {
  Engine eng;
  Nanos t_after_child = -1;
  auto child = [](Engine& e) -> Task { co_await e.delay(300); };
  eng.spawn([](Engine& e, decltype(child)& c, Nanos& out) -> Task {
    co_await e.delay(100);
    co_await c(e);
    out = e.now();
  }(eng, child, t_after_child));
  eng.run();
  EXPECT_EQ(t_after_child, 400);
}

TEST(Engine, ExceptionInRootTaskPropagatesFromRun) {
  Engine eng;
  eng.spawn([](Engine& e) -> Task {
    co_await e.delay(10);
    throw std::runtime_error("boom");
  }(eng));
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, ExceptionInNestedTaskPropagatesToAwaiter) {
  Engine eng;
  bool caught = false;
  auto child = [](Engine& e) -> Task {
    co_await e.delay(1);
    throw std::logic_error("inner");
  };
  eng.spawn([](Engine& e, decltype(child)& c, bool& flag) -> Task {
    try {
      co_await c(e);
    } catch (const std::logic_error&) {
      flag = true;
    }
  }(eng, child, caught));
  eng.run();
  EXPECT_TRUE(caught);
}

TEST(Engine, DeadlockDetectedWhenTaskBlocksForever) {
  Engine eng;
  Flag flag(eng, 0);
  eng.spawn([](Flag& f) -> Task { co_await f.wait_geq(1); }(flag));
  EXPECT_THROW(eng.run(), sim::DeadlockError);
}

TEST(Engine, LiveTasksTracksCompletion) {
  Engine eng;
  eng.spawn([](Engine& e) -> Task { co_await e.delay(1); }(eng));
  EXPECT_EQ(eng.live_tasks(), 1u);
  eng.run();
  EXPECT_EQ(eng.live_tasks(), 0u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = []() {
    Engine eng;
    std::vector<std::pair<int, Nanos>> log;
    for (int i = 0; i < 16; ++i) {
      eng.spawn([](Engine& e, std::vector<std::pair<int, Nanos>>& l,
                   int id) -> Task {
        for (int k = 0; k < 3; ++k) {
          co_await e.delay((id * 7 + k * 13) % 29);
          l.emplace_back(id, e.now());
        }
      }(eng, log, i));
    }
    eng.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Flag, WaitReturnsImmediatelyWhenAlreadySatisfied) {
  Engine eng;
  Flag flag(eng, 5);
  Nanos when = -1;
  eng.spawn([](Engine& e, Flag& f, Nanos& out) -> Task {
    co_await f.wait_geq(5);
    out = e.now();
  }(eng, flag, when));
  eng.run();
  EXPECT_EQ(when, 0);
}

TEST(Flag, WakesWaiterAtSignalTime) {
  Engine eng;
  Flag flag(eng, 0);
  Nanos when = -1;
  eng.spawn([](Engine& e, Flag& f, Nanos& out) -> Task {
    co_await f.wait_geq(2);
    out = e.now();
  }(eng, flag, when));
  eng.spawn([](Engine& e, Flag& f) -> Task {
    co_await e.delay(100);
    f.set(1);  // insufficient
    co_await e.delay(100);
    f.set(2);  // satisfies
  }(eng, flag));
  eng.run();
  EXPECT_EQ(when, 200);
}

TEST(Flag, AllComparisonOperatorsBehave) {
  EXPECT_TRUE(sim::compare(Cmp::kEq, 3, 3));
  EXPECT_FALSE(sim::compare(Cmp::kEq, 3, 4));
  EXPECT_TRUE(sim::compare(Cmp::kNe, 3, 4));
  EXPECT_TRUE(sim::compare(Cmp::kGt, 4, 3));
  EXPECT_FALSE(sim::compare(Cmp::kGt, 3, 3));
  EXPECT_TRUE(sim::compare(Cmp::kGe, 3, 3));
  EXPECT_TRUE(sim::compare(Cmp::kLt, 2, 3));
  EXPECT_TRUE(sim::compare(Cmp::kLe, 3, 3));
  EXPECT_FALSE(sim::compare(Cmp::kLe, 4, 3));
}

TEST(Flag, MultipleWaitersWithDifferentThresholds) {
  Engine eng;
  Flag flag(eng, 0);
  std::vector<std::pair<int, Nanos>> woke;
  auto waiter = [](Engine& e, Flag& f, std::vector<std::pair<int, Nanos>>& log,
                   int id, std::int64_t threshold) -> Task {
    co_await f.wait_geq(threshold);
    log.emplace_back(id, e.now());
  };
  eng.spawn(waiter(eng, flag, woke, 1, 1));
  eng.spawn(waiter(eng, flag, woke, 2, 2));
  eng.spawn(waiter(eng, flag, woke, 3, 3));
  eng.spawn([](Engine& e, Flag& f) -> Task {
    co_await e.delay(10);
    f.set(2);
    co_await e.delay(10);
    f.set(3);
  }(eng, flag));
  eng.run();
  ASSERT_EQ(woke.size(), 3u);
  EXPECT_EQ(woke[0], (std::pair<int, Nanos>{1, 10}));
  EXPECT_EQ(woke[1], (std::pair<int, Nanos>{2, 10}));
  EXPECT_EQ(woke[2], (std::pair<int, Nanos>{3, 20}));
}

TEST(Flag, AddAccumulates) {
  Engine eng;
  Flag flag(eng, 0);
  flag.add(3);
  flag.add(-1);
  EXPECT_EQ(flag.value(), 2);
}

TEST(Semaphore, LimitsConcurrency) {
  Engine eng;
  Semaphore sem(eng, 2);
  int concurrent = 0;
  int peak = 0;
  auto worker = [](Engine& e, Semaphore& s, int& cur, int& pk) -> Task {
    co_await s.acquire();
    ++cur;
    pk = std::max(pk, cur);
    co_await e.delay(100);
    --cur;
    s.release();
  };
  for (int i = 0; i < 6; ++i) eng.spawn(worker(eng, sem, concurrent, peak));
  eng.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(sem.available(), 2);
}

TEST(Semaphore, HandoffIsFifo) {
  Engine eng;
  Semaphore sem(eng, 1);
  std::vector<int> order;
  auto worker = [](Engine& e, Semaphore& s, std::vector<int>& ord, int id) -> Task {
    co_await s.acquire();
    ord.push_back(id);
    co_await e.delay(10);
    s.release();
  };
  for (int i = 0; i < 4; ++i) eng.spawn(worker(eng, sem, order, i));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Barrier, ReleasesAllPartiesTogether) {
  Engine eng;
  Barrier bar(eng, 3);
  std::vector<Nanos> times;
  auto worker = [](Engine& e, Barrier& b, std::vector<Nanos>& t, Nanos d) -> Task {
    co_await e.delay(d);
    co_await b.arrive_and_wait();
    t.push_back(e.now());
  };
  eng.spawn(worker(eng, bar, times, 10));
  eng.spawn(worker(eng, bar, times, 50));
  eng.spawn(worker(eng, bar, times, 30));
  eng.run();
  ASSERT_EQ(times.size(), 3u);
  for (Nanos t : times) EXPECT_EQ(t, 50);
  EXPECT_EQ(bar.generation(), 1u);
}

TEST(Barrier, CyclicReuseAcrossIterations) {
  Engine eng;
  constexpr int kIters = 5;
  constexpr int kParties = 4;
  Barrier bar(eng, kParties);
  std::vector<int> per_iter_count(kIters, 0);
  auto worker = [](Engine& e, Barrier& b, std::vector<int>& counts,
                   int id) -> Task {
    for (int it = 0; it < kIters; ++it) {
      co_await e.delay(id * 3 + 1);
      counts[static_cast<std::size_t>(it)]++;
      co_await b.arrive_and_wait();
      // After the barrier every party must have arrived in this iteration.
      if (counts[static_cast<std::size_t>(it)] != kParties) {
        throw std::logic_error("barrier released early");
      }
    }
  };
  for (int i = 0; i < kParties; ++i) eng.spawn(worker(eng, bar, per_iter_count, i));
  eng.run();
  EXPECT_EQ(bar.generation(), static_cast<std::uint64_t>(kIters));
}

TEST(Barrier, SinglePartyNeverBlocks) {
  Engine eng;
  Barrier bar(eng, 1);
  bool done = false;
  eng.spawn([](Barrier& b, bool& d) -> Task {
    co_await b.arrive_and_wait();
    d = true;
  }(bar, done));
  eng.run();
  EXPECT_TRUE(done);
}

TEST(Channel, PopBlocksUntilPush) {
  Engine eng;
  Channel<int> ch(eng);
  int got = 0;
  Nanos when = -1;
  eng.spawn([](Engine& e, Channel<int>& c, int& v, Nanos& t) -> Task {
    v = co_await c.pop();
    t = e.now();
  }(eng, ch, got, when));
  eng.spawn([](Engine& e, Channel<int>& c) -> Task {
    co_await e.delay(42);
    c.push(7);
  }(eng, ch));
  eng.run();
  EXPECT_EQ(got, 7);
  EXPECT_EQ(when, 42);
}

TEST(Channel, PreservesFifoOrder) {
  Engine eng;
  Channel<int> ch(eng);
  std::vector<int> got;
  eng.spawn([](Channel<int>& c, std::vector<int>& out) -> Task {
    for (int i = 0; i < 4; ++i) out.push_back(co_await c.pop());
  }(ch, got));
  eng.spawn([](Engine& e, Channel<int>& c) -> Task {
    for (int i = 0; i < 4; ++i) {
      c.push(i);
      co_await e.delay(5);
    }
  }(eng, ch));
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Channel, HandoffNotStolenBySameInstantPop) {
  Engine eng;
  Channel<int> ch(eng);
  std::vector<int> first, second;
  eng.spawn([](Channel<int>& c, std::vector<int>& out) -> Task {
    out.push_back(co_await c.pop());
  }(ch, first));
  eng.spawn([](Engine& e, Channel<int>& c, std::vector<int>& out) -> Task {
    co_await e.delay(10);
    c.push(1);  // handed to the first (suspended) popper
    out.push_back(co_await c.pop());
  }(eng, ch, second));
  eng.spawn([](Engine& e, Channel<int>& c) -> Task {
    co_await e.delay(20);
    c.push(2);
  }(eng, ch));
  eng.run();
  EXPECT_EQ(first, (std::vector<int>{1}));
  EXPECT_EQ(second, (std::vector<int>{2}));
}

TEST(Trace, UnionMergesOverlappingIntervals) {
  sim::Trace tr;
  tr.record(Cat::kComm, 0, 0, 0, 100);
  tr.record(Cat::kComm, 0, 1, 50, 150);   // overlaps previous
  tr.record(Cat::kComm, 0, 0, 200, 250);  // disjoint
  EXPECT_EQ(tr.union_length(Cat::kComm), 200);
}

TEST(Trace, OverlapBetweenCategories) {
  sim::Trace tr;
  tr.record(Cat::kComm, 0, 0, 0, 100);
  tr.record(Cat::kCompute, 0, 1, 60, 200);
  EXPECT_EQ(tr.overlap_length(Cat::kComm, Cat::kCompute), 40);
  EXPECT_DOUBLE_EQ(tr.overlap_ratio(Cat::kComm, Cat::kCompute), 0.4);
}

TEST(Trace, DeviceFilterRestrictsAnalysis) {
  sim::Trace tr;
  tr.record(Cat::kComm, 0, 0, 0, 100);
  tr.record(Cat::kComm, 1, 0, 0, 300);
  EXPECT_EQ(tr.union_length(Cat::kComm, 0), 100);
  EXPECT_EQ(tr.union_length(Cat::kComm, 1), 300);
  EXPECT_EQ(tr.union_length(Cat::kComm), 300);  // union across devices merges
}

TEST(Trace, DisabledTraceDropsIntervals) {
  sim::Trace tr;
  tr.set_enabled(false);
  tr.record(Cat::kComm, 0, 0, 0, 100);
  EXPECT_TRUE(tr.intervals().empty());
}

TEST(Trace, ZeroLengthIntervalsIgnored) {
  sim::Trace tr;
  tr.record(Cat::kComm, 0, 0, 100, 100);
  EXPECT_TRUE(tr.intervals().empty());
}

TEST(Trace, ChromeJsonContainsEvents) {
  sim::Trace tr;
  tr.record(Cat::kCompute, 2, 1, 1000, 3000, "stencil");
  const std::string json = tr.to_chrome_json();
  EXPECT_NE(json.find("\"stencil\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 2"), std::string::npos);
}

TEST(Trace, OverlapRatioZeroWhenNoIntervals) {
  sim::Trace tr;
  EXPECT_DOUBLE_EQ(tr.overlap_ratio(Cat::kComm, Cat::kCompute), 0.0);
}

TEST(Trace, UnionLengthAnyEmptyCategorySetIsZero) {
  sim::Trace tr;
  tr.record(Cat::kCompute, 0, 0, 0, 100);
  EXPECT_EQ(tr.union_length_any({}), 0);
}

TEST(Trace, UnionLengthAnyMergesAcrossCategories) {
  sim::Trace tr;
  tr.record(Cat::kComm, 0, 0, 0, 100);
  tr.record(Cat::kSync, 0, 0, 50, 150);      // overlaps the comm interval
  tr.record(Cat::kHostApi, -1, 0, 200, 250); // disjoint
  tr.record(Cat::kCompute, 0, 0, 0, 1000);   // not requested; must not count
  EXPECT_EQ(tr.union_length_any({Cat::kComm, Cat::kSync, Cat::kHostApi}), 200);
}

TEST(Trace, OverlapRatioZeroWhenOneCategoryEmpty) {
  sim::Trace tr;
  tr.record(Cat::kCompute, 0, 0, 0, 100);
  // No comm intervals at all: the ratio's denominator union is empty.
  EXPECT_DOUBLE_EQ(tr.overlap_ratio(Cat::kComm, Cat::kCompute), 0.0);
  // And the other way around: comm exists but compute is empty.
  sim::Trace tr2;
  tr2.record(Cat::kComm, 0, 0, 0, 100);
  EXPECT_DOUBLE_EQ(tr2.overlap_ratio(Cat::kComm, Cat::kCompute), 0.0);
}

// --- union-sweep oracle ----------------------------------------------------------
//
// Seeded random traces checked against a per-nanosecond coverage bitmap. Each
// trace is fed in end order (the in-place sweep), in end order with one span
// moved last (the sweep abandons a long prefix for the sorted copy) and
// shuffled (the sorted-copy fallback). The generator deliberately produces nested,
// touching, identical, equal-end and zero-length spans.

constexpr std::array<Cat, 6> kAllCats{Cat::kCompute, Cat::kComm,   Cat::kSync,
                                      Cat::kHostApi, Cat::kKernel, Cat::kOther};

struct RawSpan {
  Cat cat;
  std::int32_t device;
  Nanos begin;
  Nanos end;
};

std::vector<RawSpan> random_spans(std::mt19937_64& rng, int devices,
                                  Nanos window) {
  std::uniform_int_distribution<int> count_d(0, 500);
  std::uniform_int_distribution<int> cat_d(0, 5);
  std::uniform_int_distribution<int> dev_d(-1, devices - 1);
  std::uniform_int_distribution<int> shape_d(0, 9);
  std::uniform_int_distribution<Nanos> begin_d(0, window - 1);
  std::uniform_int_distribution<Nanos> len_d(0, 120);
  const int n = count_d(rng);
  std::vector<RawSpan> out;
  for (int i = 0; i < n; ++i) {
    RawSpan s{kAllCats[static_cast<std::size_t>(cat_d(rng))], dev_d(rng), 0, 0};
    const int shape = out.empty() ? 0 : shape_d(rng);
    const RawSpan& prev =
        out.empty() ? s : out[std::uniform_int_distribution<std::size_t>(
                              0, out.size() - 1)(rng)];
    switch (shape) {
      case 1:  // nested inside an earlier span
        s.begin = prev.begin + (prev.end - prev.begin) / 4;
        s.end = prev.end - (prev.end - prev.begin) / 4;
        break;
      case 2:  // identical to an earlier span
        s.begin = prev.begin;
        s.end = prev.end;
        break;
      case 3:  // touching an earlier span's end
        s.begin = prev.end;
        s.end = s.begin + len_d(rng);
        break;
      case 4:  // sharing an earlier span's end
        s.end = prev.end;
        s.begin = std::max<Nanos>(0, s.end - len_d(rng));
        break;
      case 5:  // zero length: must be dropped
        s.begin = s.end = begin_d(rng);
        break;
      default:
        s.begin = begin_d(rng);
        s.end = s.begin + len_d(rng);
        break;
    }
    s.end = std::min(s.end, window);
    s.begin = std::min(s.begin, s.end);
    out.push_back(s);
  }
  return out;
}

/// Per-nanosecond category coverage: bits[slot][t] has bit `c` set when an
/// interval of category c on device slot-1 (slot 0 == host) covers [t, t+1).
struct Coverage {
  std::vector<std::vector<sim::CatMask>> bits;

  Coverage(const std::vector<RawSpan>& spans, int devices, Nanos window)
      : bits(static_cast<std::size_t>(devices + 1),
             std::vector<sim::CatMask>(static_cast<std::size_t>(window), 0)) {
    for (const RawSpan& s : spans) {
      auto& row = bits[static_cast<std::size_t>(s.device + 1)];
      for (Nanos t = s.begin; t < s.end; ++t) {
        row[static_cast<std::size_t>(t)] |= sim::cat_mask(s.cat);
      }
    }
  }

  [[nodiscard]] sim::CatMask at(std::size_t t, std::int32_t device) const {
    if (device != -2) return bits[static_cast<std::size_t>(device + 1)][t];
    sim::CatMask m = 0;
    for (const auto& row : bits) m = static_cast<sim::CatMask>(m | row[t]);
    return m;
  }

  /// Nanoseconds covered by some category in `a` and some category in `b`.
  [[nodiscard]] Nanos both(sim::CatMask a, sim::CatMask b,
                           std::int32_t device) const {
    Nanos n = 0;
    for (std::size_t t = 0; t < bits[0].size(); ++t) {
      const sim::CatMask m = at(t, device);
      n += (m & a) != 0 && (m & b) != 0 ? 1 : 0;
    }
    return n;
  }

  [[nodiscard]] Nanos any(sim::CatMask a, std::int32_t device) const {
    return both(a, a, device);
  }
};

void check_against_oracle(const sim::Trace& tr, const Coverage& cov,
                          int devices, Nanos window) {
  std::vector<std::int32_t> filters{-2};
  for (std::int32_t d = -1; d < devices; ++d) filters.push_back(d);
  for (std::int32_t d : filters) {
    SCOPED_TRACE("device " + std::to_string(d));
    for (Cat a : kAllCats) {
      const sim::CatMask ma = sim::cat_mask(a);
      ASSERT_EQ(tr.union_length(a, d), cov.any(ma, d)) << sim::cat_name(a);
      for (Cat b : kAllCats) {
        const sim::CatMask mb = sim::cat_mask(b);
        const Nanos ov = cov.both(ma, mb, d);
        ASSERT_EQ(tr.overlap_length(a, b, d), ov)
            << sim::cat_name(a) << " x " << sim::cat_name(b);
        const Nanos la = cov.any(ma, d);
        ASSERT_EQ(tr.overlap_ratio(a, b, d),
                  la == 0 ? 0.0
                          : static_cast<double>(ov) / static_cast<double>(la));
      }
    }
    ASSERT_EQ(tr.union_length_any({Cat::kComm, Cat::kSync, Cat::kHostApi}, d),
              cov.any(sim::cat_mask({Cat::kComm, Cat::kSync, Cat::kHostApi}),
                      d));
    ASSERT_EQ(tr.union_length_any({}, d), 0);
    // Every non-empty category set, eight sets per sweep.
    for (unsigned first = 1; first < 64; first += 8) {
      std::array<sim::CatMask, 8> sets{};
      std::array<Nanos, 8> got{};
      for (unsigned k = 0; k < 8; ++k) {
        sets[k] = static_cast<sim::CatMask>((first + k) % 64);
      }
      tr.union_lengths(sets, got, d);
      for (unsigned k = 0; k < 8; ++k) {
        ASSERT_EQ(got[k], cov.any(sets[k], d)) << "set " << unsigned{sets[k]};
      }
    }
  }

  // analyze_run against a RunMetrics built from the bitmaps.
  const std::int64_t iterations = 7;
  const cpufree::RunMetrics m = cpufree::analyze_run(tr, window, iterations);
  cpufree::RunMetrics want;
  want.total = window;
  want.per_iteration = window / iterations;
  want.comm = cov.any(sim::cat_mask(Cat::kComm), -2);
  want.compute = cov.any(sim::cat_mask(Cat::kCompute), -2);
  want.sync = cov.any(sim::cat_mask(Cat::kSync), -2);
  want.host_api = cov.any(sim::cat_mask(Cat::kHostApi), -2);
  want.comm_hidden = cov.both(sim::cat_mask(Cat::kComm),
                              sim::cat_mask(Cat::kCompute), -2);
  want.overlap_ratio = want.comm == 0 ? 0.0
                                      : static_cast<double>(want.comm_hidden) /
                                            static_cast<double>(want.comm);
  const double total = static_cast<double>(window);
  want.comm_fraction = static_cast<double>(want.comm) / total;
  want.noncompute_fraction = 1.0 - static_cast<double>(want.compute) / total;
  const Nanos noncompute = cov.any(
      sim::cat_mask({Cat::kComm, Cat::kSync, Cat::kHostApi}), -2);
  if (noncompute > 0) {
    const Nanos covered = std::clamp<Nanos>(
        want.compute + noncompute - window, 0, noncompute);
    want.hidden_comm_ratio =
        static_cast<double>(covered) / static_cast<double>(noncompute);
  }
  EXPECT_EQ(cpufree::to_json(m), cpufree::to_json(want));
}

TEST(TraceUnionSweep, MatchesCoverageBitmapInEveryFeedOrder) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const int devices = 1 + static_cast<int>(seed % 4);
    const Nanos window = std::uniform_int_distribution<Nanos>(50, 2000)(rng);
    std::vector<RawSpan> spans = random_spans(rng, devices, window);
    const Coverage cov(spans, devices, window);
    const auto kept = static_cast<std::size_t>(std::count_if(
        spans.begin(), spans.end(),
        [](const RawSpan& s) { return s.end > s.begin; }));

    std::stable_sort(spans.begin(), spans.end(),
                     [](const RawSpan& x, const RawSpan& y) {
                       return x.end < y.end;
                     });
    sim::Trace in_order;
    for (const RawSpan& s : spans) {
      in_order.record(s.cat, s.device, 0, s.begin, s.end);
    }
    ASSERT_EQ(in_order.intervals().size(), kept);
    check_against_oracle(in_order, cov, devices, window);

    // In end order but for the first span moved last: the in-place sweep
    // gets almost to the end before it meets the out-of-order span.
    if (!spans.empty()) std::rotate(spans.begin(), spans.begin() + 1, spans.end());
    sim::Trace late_break;
    for (const RawSpan& s : spans) {
      late_break.record(s.cat, s.device, 0, s.begin, s.end);
    }
    check_against_oracle(late_break, cov, devices, window);

    std::shuffle(spans.begin(), spans.end(), rng);
    sim::Trace shuffled;
    for (const RawSpan& s : spans) {
      shuffled.record(s.cat, s.device, 0, s.begin, s.end);
    }
    ASSERT_EQ(shuffled.intervals().size(), kept);
    check_against_oracle(shuffled, cov, devices, window);
  }
}

TEST(TraceUnionSweep, RejectsMismatchedOrOversizedSetLists) {
  sim::Trace tr;
  const std::array<sim::CatMask, 2> two{1, 2};
  std::array<Nanos, 1> one{};
  EXPECT_THROW(tr.union_lengths(two, one), std::invalid_argument);
  const std::array<sim::CatMask, 9> nine{};
  std::array<Nanos, 9> nine_out{};
  EXPECT_THROW(tr.union_lengths(nine, nine_out), std::invalid_argument);
}

TEST(Trace, RecordFromSecondThreadThrows) {
  // Traces are thread-confined: each sweep job must own its Machine/Engine/
  // Trace. Recording from a second thread is a programming error the trace
  // detects at runtime.
  sim::Trace tr;
  tr.record(Cat::kCompute, 0, 0, 0, 100);  // bind to this thread
  bool threw = false;
  std::thread other([&] {
    try {
      tr.record(Cat::kCompute, 0, 0, 100, 200);
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  other.join();
  EXPECT_TRUE(threw);
  EXPECT_EQ(tr.intervals().size(), 1u);  // the cross-thread record was rejected
}

TEST(Trace, ClearReleasesThreadOwnership) {
  // clear() resets ownership so a pooled worker can reuse a trace for the
  // next job.
  sim::Trace tr;
  std::thread first([&] { tr.record(Cat::kCompute, 0, 0, 0, 100); });
  first.join();
  tr.clear();
  EXPECT_NO_THROW(tr.record(Cat::kComm, 0, 0, 0, 50));  // this thread now owns
  EXPECT_EQ(tr.intervals().size(), 1u);
}

TEST(Stats, MinMeanMedianMax) {
  RunStats s;
  for (double v : {5.0, 1.0, 3.0, 2.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_EQ(s.count(), 5u);
}

TEST(Stats, MedianEvenCount) {
  RunStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
}

TEST(Stats, EmptyThrows) {
  RunStats s;
  EXPECT_THROW(static_cast<void>(s.min()), std::logic_error);
  EXPECT_THROW(static_cast<void>(s.mean()), std::logic_error);
}

TEST(Stats, SpeedupPercentMatchesPaperFormula) {
  // Speedup% = (T_baseline - T_ours) / T_baseline * 100.
  EXPECT_DOUBLE_EQ(sim::speedup_percent(10.0, 5.0), 50.0);
  EXPECT_DOUBLE_EQ(sim::speedup_percent(10.0, 0.38), 96.2);
  EXPECT_DOUBLE_EQ(sim::speedup_percent(0.0, 1.0), 0.0);
}

// Property-style sweep: N producers and N consumers over one channel always
// deliver every element exactly once, regardless of interleaving.
class ChannelSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChannelSweep, AllElementsDeliveredExactlyOnce) {
  const int n = GetParam();
  Engine eng;
  Channel<int> ch(eng);
  std::vector<int> seen;
  for (int c = 0; c < n; ++c) {
    eng.spawn([](Channel<int>& q, std::vector<int>& out) -> Task {
      out.push_back(co_await q.pop());
    }(ch, seen));
  }
  for (int p = 0; p < n; ++p) {
    eng.spawn([](Engine& e, Channel<int>& q, int v) -> Task {
      co_await e.delay(v % 7);
      q.push(v);
    }(eng, ch, p));
  }
  eng.run();
  std::sort(seen.begin(), seen.end());
  std::vector<int> expect(static_cast<std::size_t>(n));
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(seen, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChannelSweep, ::testing::Values(1, 2, 5, 16, 64));

// Property-style sweep: barriers of any size synchronize: after a barrier, a
// shared counter incremented before the barrier equals the party count.
class BarrierSweep : public ::testing::TestWithParam<int> {};

TEST_P(BarrierSweep, CounterCompleteAfterBarrier) {
  const int parties = GetParam();
  Engine eng;
  Barrier bar(eng, static_cast<std::size_t>(parties));
  int counter = 0;
  bool ok = true;
  for (int i = 0; i < parties; ++i) {
    eng.spawn([](Engine& e, Barrier& b, int& cnt, bool& good, int id,
                 int total) -> Task {
      co_await e.delay(id % 5);
      ++cnt;
      co_await b.arrive_and_wait();
      good = good && (cnt == total);
    }(eng, bar, counter, ok, i, parties));
  }
  eng.run();
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BarrierSweep, ::testing::Values(1, 2, 3, 8, 108));

// --- TimerToken lifecycle ---------------------------------------------------

TEST(TimerToken, CancelReleasesPayloadImmediately) {
  sim::Engine eng;
  auto payload = std::make_shared<int>(42);
  EXPECT_EQ(payload.use_count(), 1);
  sim::TimerToken tok =
      eng.schedule_callback([payload] { (void)*payload; }, 1000);
  EXPECT_EQ(payload.use_count(), 2);
  tok.cancel();
  // The fix under test: the captured closure is dropped at cancel() time,
  // not when the dead queue entry is eventually popped.
  EXPECT_EQ(payload.use_count(), 1);
  EXPECT_FALSE(tok.armed());
  eng.run();
}

TEST(TimerToken, CancelAfterFireIsANoOp) {
  sim::Engine eng;
  int fired = 0;
  sim::TimerToken tok = eng.schedule_callback([&fired] { ++fired; }, 10);
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(tok.armed());
  tok.cancel();  // must not crash, must not fire again
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(TimerToken, CancelledTimerLeavesNoTraceOnTime) {
  sim::Engine eng;
  sim::TimerToken tok = eng.schedule_callback([] {}, 5000);
  bool ran = false;
  (void)eng.schedule_callback([&ran] { ran = true; }, 10);
  tok.cancel();
  eng.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(eng.now(), 10) << "dead entry advanced the clock";
}

sim::Task park_forever(sim::Engine& eng, sim::Flag& f) {
  const sim::Engine::WaitToken wt = eng.note_wait_begin(
      {sim::Actor{}, "never_flag", &f, sim::Cmp::kGe, 1});
  co_await f.wait_geq(1);
  eng.note_wait_end(wt);
}

TEST(TimerToken, HangReportIgnoresCancelledCallbacks) {
  // A root parked on a never-set flag plus a sea of cancelled timers: the
  // run must end in a DeadlockError naming the real waiter — dead entries
  // are drained before the report, never counted as pending work.
  sim::Engine eng;
  sim::Flag never(eng, 0);
  eng.name_flag(&never, "never_flag");
  std::vector<sim::TimerToken> tokens;
  for (int i = 0; i < 100; ++i) {
    tokens.push_back(eng.schedule_callback([] { FAIL(); }, 1000 + i));
  }
  eng.spawn(park_forever(eng, never));
  for (auto& t : tokens) t.cancel();
  try {
    eng.run();
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    EXPECT_EQ(e.stuck_tasks, 1u);
    EXPECT_NE(std::string(e.what()).find("never_flag"), std::string::npos)
        << e.what();
  }
}

}  // namespace
