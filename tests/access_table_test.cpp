// Differential test of the checker's shadow table (label: check).
//
// check::AccessTable keeps its segments in a flat sorted vector and walks a
// strided access once with a cursor. MapAccessTable below is the earlier
// std::map table (per-element split_at / lower_bound, string attribution),
// kept here only as a reference model: both are fed the same seeded access
// streams and must report the same races, in the same order, with the same
// attribution.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "check/access.hpp"
#include "check/clock.hpp"

namespace {

using check::AccessInfo;
using check::AccessTable;
using check::Epoch;
using check::Tid;
using check::VectorClock;

// --- the reference model -----------------------------------------------------

struct ModelInfo {
  Epoch epoch{};
  std::string actor;
  std::string what;
};

class MapAccessTable {
 public:
  template <typename Reporter>
  void access(std::size_t lo, std::size_t hi, bool is_write,
              const ModelInfo& cur, const VectorClock& vc, Reporter&& report) {
    if (hi <= lo) return;
    split_at(lo);
    split_at(hi);
    std::size_t cursor = lo;
    for (auto it = segs_.lower_bound(lo); it != segs_.end() && it->first < hi;
         ++it) {
      if (it->first > cursor) segs_.emplace(cursor, Segment{it->first, {}, {}});
      cursor = it->second.hi;
    }
    if (cursor < hi) segs_.emplace(cursor, Segment{hi, {}, {}});
    for (auto it = segs_.lower_bound(lo); it != segs_.end() && it->first < hi;
         ++it) {
      apply(it->second, is_write, cur, vc, report);
    }
  }

 private:
  struct Segment {
    std::size_t hi = 0;
    ModelInfo write{};
    std::vector<ModelInfo> reads{};
  };

  template <typename Reporter>
  static void apply(Segment& s, bool is_write, const ModelInfo& cur,
                    const VectorClock& vc, Reporter&& report) {
    if (s.write.epoch.valid() && !vc.covers(s.write.epoch)) {
      report(s.write, true);
    }
    if (is_write) {
      for (const ModelInfo& r : s.reads) {
        if (!vc.covers(r.epoch)) report(r, false);
      }
      s.write = cur;
      s.reads.clear();
      return;
    }
    for (ModelInfo& r : s.reads) {
      if (r.epoch.tid == cur.epoch.tid) {
        r = cur;
        return;
      }
    }
    s.reads.push_back(cur);
  }

  void split_at(std::size_t p) {
    auto it = segs_.upper_bound(p);
    if (it == segs_.begin()) return;
    --it;
    if (it->first < p && p < it->second.hi) {
      Segment tail = it->second;
      it->second.hi = p;
      segs_.emplace(p, std::move(tail));
    }
  }

  std::map<std::size_t, Segment> segs_;
};

// --- the harness -------------------------------------------------------------

const char* const kActors[] = {"pe0/k0.g0(comm)", "pe1/k0.g1(inner)",
                               "wire0->1", "wire1->0", "pe2/host",
                               "pe3/k1.g0(u1@pe0)"};
const char* const kWhats[] = {"halo_read", "putmem_signal_nbi", "iput",
                              "copy_back"};

struct Race {
  std::size_t access = 0;  // index of the access in the stream
  std::string actor;
  std::string what;
  Tid tid = 0;
  std::uint64_t clk = 0;
  bool prior_is_write = false;

  bool operator==(const Race&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Race& r) {
  return os << "#" << r.access << " " << r.what << " by " << r.actor << " @"
            << r.tid << ":" << r.clk << (r.prior_is_write ? " W" : " R");
}

// Feeds one access to both tables and appends each one's races.
struct Pair {
  AccessTable flat;
  MapAccessTable model;
  std::vector<Race> flat_races, model_races;
  std::size_t n = 0;

  void access(std::size_t lo, std::size_t elem, std::size_t stride,
              std::size_t count, bool is_write, Epoch e, std::uint32_t actor,
              std::uint32_t what, const VectorClock& vc) {
    const std::size_t idx = n++;
    flat.access_strided(
        lo, elem, stride, count, is_write, AccessInfo{e, actor, what}, vc,
        [&](const AccessInfo& p, bool w) {
          flat_races.push_back(Race{idx, kActors[p.actor], kWhats[p.what],
                                    p.epoch.tid, p.epoch.clk, w});
        });
    const ModelInfo cur{e, kActors[actor], kWhats[what]};
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t at = lo + k * stride;
      model.access(at, at + elem, is_write, cur, vc,
                   [&](const ModelInfo& p, bool w) {
                     model_races.push_back(Race{idx, p.actor, p.what,
                                                p.epoch.tid, p.epoch.clk, w});
                   });
    }
  }
};

std::size_t pick(std::mt19937_64& rng, std::size_t n) {
  return static_cast<std::size_t>(rng() % n);
}

// A seeded stream: contiguous and strided accesses, reads and writes, by
// several timelines that synchronize now and then. Offsets are mostly
// 8-byte aligned (halo-like, so boundaries realign) with some odd ones that
// force re-splits of existing segments, over a span with untouched gaps.
void run_stream(std::uint64_t seed, std::size_t accesses, Pair& pair) {
  std::mt19937_64 rng(seed);
  constexpr Tid kTimelines = 6;
  std::vector<VectorClock> clocks(kTimelines);
  for (Tid t = 0; t < kTimelines; ++t) clocks[t].tick(t);
  for (std::size_t i = 0; i < accesses; ++i) {
    const auto t = static_cast<Tid>(pick(rng, kTimelines));
    if (pick(rng, 4) == 0) {  // acquire another timeline's history
      const auto from = static_cast<Tid>(pick(rng, kTimelines));
      if (from != t) clocks[t].join(clocks[from]);
    }
    const Epoch e{t, clocks[t].tick(t)};
    const bool odd = pick(rng, 8) == 0;
    const std::size_t unit = odd ? 1 : 8;
    const std::size_t lo = pick(rng, 64) * unit + (odd ? 0 : 8 * pick(rng, 4));
    const bool is_write = pick(rng, 2) == 0;
    const auto actor = static_cast<std::uint32_t>(t % std::size(kActors));
    const auto what = static_cast<std::uint32_t>(pick(rng, std::size(kWhats)));
    if (pick(rng, 3) == 0) {
      const std::size_t elem = unit * (1 + pick(rng, 2));
      const std::size_t stride = elem + unit * (1 + pick(rng, 6));
      const std::size_t count = 1 + pick(rng, 12);
      pair.access(lo, elem, stride, count, is_write, e, actor, what,
                  clocks[t]);
    } else {
      const std::size_t len = unit * (1 + pick(rng, 24));
      pair.access(lo, len, len, 1, is_write, e, actor, what, clocks[t]);
    }
  }
  // A final unordered write over everything (a fresh timeline, empty clock)
  // reports every segment's surviving history, so the two tables' end
  // states are compared too.
  VectorClock none;
  none.tick(kTimelines);
  pair.access(0, 1024, 1024, 1, true, Epoch{kTimelines, 1}, 0, 0, none);
}

TEST(AccessTableDiff, SeededStreamsMatchTheMapModel) {
  std::size_t total_races = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Pair pair;
    run_stream(seed, 300, pair);
    ASSERT_EQ(pair.flat_races, pair.model_races) << "seed " << seed;
    total_races += pair.model_races.size();
  }
  // The streams must actually exercise race reporting.
  EXPECT_GT(total_races, 1000u);
}

TEST(AccessTableDiff, InterleavedStridedColumnsDoNotRace) {
  // Two unordered timelines write alternating 8-byte columns of one row-major
  // 16-byte-wide array: disjoint bytes, no race. Then one writes the other's
  // column: every element races.
  Pair pair;
  VectorClock a, b;
  a.tick(0);
  b.tick(1);
  pair.access(0, 8, 16, 32, true, Epoch{0, a.tick(0)}, 0, 1, a);
  pair.access(8, 8, 16, 32, true, Epoch{1, b.tick(1)}, 1, 2, b);
  pair.access(8, 8, 16, 32, false, Epoch{0, a.tick(0)}, 0, 0, a);
  EXPECT_EQ(pair.flat_races.size(), 32u);
  pair.access(0, 8, 16, 32, true, Epoch{1, b.tick(1)}, 1, 1, b);
  EXPECT_EQ(pair.flat_races.size(), 32u + 32u);  // write->write
  EXPECT_EQ(pair.flat_races, pair.model_races);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(pair.flat_races[i].access, 2u);
    EXPECT_TRUE(pair.flat_races[i].prior_is_write);
  }
}

TEST(AccessTableDiff, OrderedColumnsAreClean) {
  // The same interleaving with the second timeline ordered after the first
  // (it joined the first's clock): nothing races.
  Pair pair;
  VectorClock a, b;
  a.tick(0);
  b.tick(1);
  pair.access(0, 8, 16, 32, true, Epoch{0, a.tick(0)}, 0, 1, a);
  pair.access(16, 8, 16, 8, false, Epoch{0, a.tick(0)}, 0, 0, a);
  b.join(a);
  pair.access(0, 8, 8 * 3, 20, true, Epoch{1, b.tick(1)}, 1, 1, b);
  pair.access(0, 512, 512, 1, false, Epoch{1, b.tick(1)}, 1, 0, b);
  EXPECT_TRUE(pair.flat_races.empty());
  EXPECT_TRUE(pair.model_races.empty());
}

}  // namespace
