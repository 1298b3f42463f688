#include "harness.hpp"

#include <array>
#include <cstdio>
#include <memory>
#include <queue>
#include <unordered_map>

#include "sim/rng.hpp"

namespace perfbench {
namespace {

/// Salt mixed into every draw: keeps benchmark streams apart from the
/// streams the program derives from the seeds it is handed.
constexpr std::uint64_t kBenchSalt = 0xbe7c4fa11ull;

/// Calibration kernel size: about 5 ms on a 4-vCPU Xeon host.
constexpr int kCalibEvents = 25000;
constexpr std::size_t kCalibCells = 1u << 14;
constexpr int kCalibSweepEvery = 256;

/// Keeps the calibration kernel's result observable.
volatile std::uint64_t calib_sink = 0;

}  // namespace

double calibrate_ms() {
  const std::int64_t t0 = now_ns();
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::unordered_map<std::uint32_t, std::uint64_t> table;
  std::vector<double> grid(kCalibCells, 1.0);
  std::vector<double> next(kCalibCells, 0.0);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  // splitmix64, written out so that no program code runs in the kernel.
  auto rng = [&x] {
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  for (std::uint32_t i = 0; i < 4096; ++i) events.emplace(rng() >> 40, i);
  std::uint64_t sum = 0;
  for (int step = 0; step < kCalibEvents; ++step) {
    const auto [t, id] = events.top();
    events.pop();
    table[id & 2047u] += t;
    auto payload = std::make_unique<std::array<std::uint64_t, 6>>();
    (*payload)[id % 6] = t;
    sum += (*payload)[id % 6] & 7u;
    events.emplace(t + (rng() & 0xffffu), id);
    if (step % kCalibSweepEvery == 0) {
      for (std::size_t c = 1; c + 1 < kCalibCells; ++c) {
        next[c] = 0.25 * (grid[c - 1] + 2.0 * grid[c] + grid[c + 1]);
      }
      grid.swap(next);
    }
  }
  calib_sink = sum + table.size() + static_cast<std::uint64_t>(grid[7]);
  return static_cast<double>(now_ns() - t0) * 1e-6;
}

int Tracer::begin(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op_;
  s.start_ns = now_ns();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Scopes close in LIFO order, so the span is the innermost open one.
  open_.pop_back();
}

std::map<std::string, double> Tracer::self_ms() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,"
                 "\"parent\":%d,\"key\":\"%s\"}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<long long>(s.op), s.parent, s.key.c_str());
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void OpResult::add_run(const cpufree::RunMetrics& m) {
  digest += cpufree::to_json(m);
  sim_ms += m.total_ms();
  job_us.push_back(sim::to_usec(m.total));
  ++runs;
  split.host_api += m.host_api;
  split.comm += m.comm;
  split.compute += m.compute;
  split.sync += m.sync;
  hidden_ratio_sum += m.hidden_comm_ratio;
}

std::uint64_t draw(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                   std::uint64_t n) {
  return sim::stream_mix(seed, kBenchSalt, a, b) % n;
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t a) {
  return sim::stream_mix(seed, kBenchSalt + 1, a, 0);
}

}  // namespace perfbench
