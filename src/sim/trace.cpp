#include "sim/trace.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace sim {

const char* cat_name(Cat c) noexcept {
  switch (c) {
    case Cat::kCompute: return "compute";
    case Cat::kComm: return "comm";
    case Cat::kSync: return "sync";
    case Cat::kHostApi: return "host_api";
    case Cat::kKernel: return "kernel";
    case Cat::kOther: return "other";
  }
  return "?";
}

void Trace::record(Cat cat, std::int32_t device, std::int32_t lane, Nanos begin,
                   Nanos end, std::string name) {
  if (!enabled_ || end <= begin) return;
  if (checked_) {
    const std::thread::id self = std::this_thread::get_id();
    if (owner_ == std::thread::id{}) {
      owner_ = self;
    } else if (owner_ != self) {
      throw std::logic_error(
          "sim::Trace is thread-confined: recorded from two threads; give "
          "each worker its own Machine/Engine (see sweep::Executor)");
    }
  }
  intervals_.push_back(Interval{cat, device, lane, begin, end, std::move(name)});
}

std::vector<Interval> Trace::take_intervals() {
  std::vector<Interval> out;
  out.swap(intervals_);
  owner_ = std::thread::id{};
  return out;
}

void Trace::append(std::vector<Interval> more) {
  if (intervals_.empty()) {
    intervals_ = std::move(more);
    return;
  }
  std::move(more.begin(), more.end(), std::back_inserter(intervals_));
}

namespace {

/// Union length of spans fed in non-decreasing `end` order. The merged
/// segments form a stack ordered by end with gaps between them, so a new
/// span [begin, end) can only reach the segments on top: it stretches the
/// top segment to `end` and folds in every segment whose end reaches
/// `begin`.
class EndOrderedUnion {
 public:
  void add(Nanos begin, Nanos end) {
    if (segs_.empty() || segs_.back().second < begin) {
      segs_.emplace_back(begin, end);
      length_ += end - begin;
      return;
    }
    length_ += end - segs_.back().second;
    segs_.back().second = end;
    while (begin < segs_.back().first) {
      const std::size_t n = segs_.size();
      if (n >= 2 && segs_[n - 2].second >= begin) {
        // The span bridges the gap below the top segment: merge the two.
        length_ += segs_[n - 1].first - segs_[n - 2].second;
        segs_[n - 2].second = end;
        segs_.pop_back();
      } else {
        length_ += segs_.back().first - begin;
        segs_.back().first = begin;
      }
    }
  }
  [[nodiscard]] Nanos length() const noexcept { return length_; }

 private:
  std::vector<std::pair<Nanos, Nanos>> segs_;
  Nanos length_ = 0;
};

struct CatSpan {
  Nanos begin;
  Nanos end;
  Cat cat;
};

}  // namespace

void Trace::union_lengths(std::span<const CatMask> sets,
                          std::span<Nanos> lengths, std::int32_t device) const {
  if (sets.size() > kMaxUnionSets || lengths.size() != sets.size()) {
    throw std::invalid_argument(
        "Trace::union_lengths: one length per set, at most kMaxUnionSets");
  }
  // For each category, the sets it belongs to.
  constexpr std::size_t kCats = 8 * sizeof(CatMask);
  std::array<std::array<std::uint8_t, kMaxUnionSets>, kCats> members{};
  std::array<std::uint8_t, kCats> n_members{};
  for (std::size_t k = 0; k < sets.size(); ++k) {
    for (std::size_t c = 0; c < kCats; ++c) {
      if (((static_cast<unsigned>(sets[k]) >> c) & 1u) != 0) {
        members[c][n_members[c]++] = static_cast<std::uint8_t>(k);
      }
    }
  }
  std::array<EndOrderedUnion, kMaxUnionSets> unions;
  const auto feed = [&](Nanos begin, Nanos end, Cat cat) {
    const auto c = static_cast<std::size_t>(cat);
    for (std::uint8_t i = 0; i < n_members[c]; ++i) {
      unions[members[c][i]].add(begin, end);
    }
  };
  // The serial engine records every interval at its end instant, so the
  // trace is usually end-ordered already: sweep it in place, checking the
  // order on the way. Merged shard traces and hand-built traces fail the
  // check and are swept again from a compact copy sorted by end.
  bool ordered = true;
  Nanos last_end = std::numeric_limits<Nanos>::min();
  for (const Interval& iv : intervals_) {
    if (iv.end < last_end) {
      ordered = false;
      break;
    }
    last_end = iv.end;
    if (device == -2 || iv.device == device) feed(iv.begin, iv.end, iv.cat);
  }
  if (!ordered) {
    unions = {};
    std::vector<CatSpan> spans;
    for (const Interval& iv : intervals_) {
      if (n_members[static_cast<std::size_t>(iv.cat)] != 0 &&
          (device == -2 || iv.device == device)) {
        spans.push_back({iv.begin, iv.end, iv.cat});
      }
    }
    std::sort(spans.begin(), spans.end(),
              [](const CatSpan& x, const CatSpan& y) { return x.end < y.end; });
    for (const CatSpan& sp : spans) feed(sp.begin, sp.end, sp.cat);
  }
  for (std::size_t k = 0; k < sets.size(); ++k) lengths[k] = unions[k].length();
}

Nanos Trace::union_length(Cat cat, std::int32_t device) const {
  return union_length_any({cat}, device);
}

Nanos Trace::union_length_any(std::initializer_list<Cat> cats,
                              std::int32_t device) const {
  const CatMask set = cat_mask(cats);
  Nanos total = 0;
  union_lengths({&set, 1}, {&total, 1}, device);
  return total;
}

Nanos Trace::overlap_length(Cat a, Cat b, std::int32_t device) const {
  const std::array<CatMask, 3> sets{cat_mask(a), cat_mask(b),
                                    cat_mask({a, b})};
  std::array<Nanos, 3> len{};
  union_lengths(sets, len, device);
  return len[0] + len[1] - len[2];
}

double Trace::overlap_ratio(Cat a, Cat b, std::int32_t device) const {
  const Nanos len = union_length(a, device);
  if (len == 0) return 0.0;
  return static_cast<double>(overlap_length(a, b, device)) /
         static_cast<double>(len);
}

std::string Trace::to_chrome_json() const {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const Interval& iv : intervals_) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\": \"" << (iv.name.empty() ? cat_name(iv.cat) : iv.name)
       << "\", \"cat\": \"" << cat_name(iv.cat) << "\", \"ph\": \"X\""
       << ", \"ts\": " << to_usec(iv.begin)
       << ", \"dur\": " << to_usec(iv.end - iv.begin)
       << ", \"pid\": " << (iv.device < 0 ? 999 : iv.device)
       << ", \"tid\": " << iv.lane << "}";
  }
  os << "\n]\n";
  return os.str();
}

std::string Trace::summary(Nanos total) const {
  // Collect the device ids present.
  std::vector<std::int32_t> devices;
  for (const Interval& iv : intervals_) {
    if (std::find(devices.begin(), devices.end(), iv.device) == devices.end()) {
      devices.push_back(iv.device);
    }
  }
  std::sort(devices.begin(), devices.end());
  std::ostringstream os;
  os << "activity over " << to_usec(total) << " us:\n";
  auto pct = [total](Nanos v) {
    return total > 0 ? 100.0 * static_cast<double>(v) / static_cast<double>(total)
                     : 0.0;
  };
  char buf[160];
  for (std::int32_t d : devices) {
    constexpr std::array<CatMask, 4> kSets{
        cat_mask(Cat::kCompute), cat_mask(Cat::kComm), cat_mask(Cat::kSync),
        cat_mask(Cat::kHostApi)};
    std::array<Nanos, 4> len{};
    union_lengths(kSets, len, d);
    const auto [comp, comm, sync, host] = len;
    if (d < 0) {
      std::snprintf(buf, sizeof(buf),
                    "  host : api %9.2f us (%5.1f%%)  sync %9.2f us (%5.1f%%)\n",
                    to_usec(host), pct(host), to_usec(sync), pct(sync));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "  gpu %2d: compute %9.2f us (%5.1f%%)  comm %9.2f us "
                    "(%5.1f%%)  sync %9.2f us (%5.1f%%)\n",
                    d, to_usec(comp), pct(comp), to_usec(comm), pct(comm),
                    to_usec(sync), pct(sync));
    }
    os << buf;
  }
  return os.str();
}

}  // namespace sim
