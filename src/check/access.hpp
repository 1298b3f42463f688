// Shadow memory for the race detector.
//
// One AccessTable per allocation base. The table keeps disjoint byte
// segments in a flat vector sorted by address; each segment carries the last
// write (epoch + attribution) and the reads since that write, at most one per
// timeline (a later read by the same timeline subsumes the earlier one). An
// incoming access splits existing segments at its boundaries, materializes
// empty segments over uncovered bytes, and then checks/updates every segment
// it overlaps:
//
//  * any access races with an uncovered prior write (write->read /
//    write->write);
//  * a write additionally races with every uncovered prior read
//    (read->write).
//
// A strided access (`count` elements of `elem` bytes, `stride` bytes apart)
// is one ascending walk of the vector with a cursor. When some element's
// boundaries are not yet segment boundaries, one merge pass reshapes the
// vector for every remaining element at once. Accesses published by the
// workloads are halo-region-granular, so boundaries align after the first
// touch and the steady state is a split-free walk.
//
// Attribution is interned: a segment stores two ids into the Detector's name
// table, so recording an access copies no strings.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "check/clock.hpp"

namespace check {

/// Attribution for one recorded access: the epoch plus interned names of
/// the actor ("pe1/k0.g2(comm_top)", "wire0->1", ...) and of the operation
/// ("halo_read", "putmem_signal_nbi", ...).
struct AccessInfo {
  Epoch epoch{};
  std::uint32_t actor = 0;
  std::uint32_t what = 0;
};

/// Shadow state for one allocation.
class AccessTable {
 public:
  /// Records the access [lo, hi) and reports every conflicting prior access.
  /// `vc` is the accessor's clock at the access; `report` is invoked as
  /// report(prior, prior_is_write) for each race found.
  template <typename Reporter>
  void access(std::size_t lo, std::size_t hi, bool is_write,
              const AccessInfo& cur, const VectorClock& vc,
              Reporter&& report) {
    if (hi <= lo) return;
    access_strided(lo, hi - lo, hi - lo, 1, is_write, cur, vc, report);
  }

  /// Records `count` accesses of `elem` bytes at lo, lo + stride, ...
  /// (stride >= elem), reporting races element by element in address
  /// order, exactly as `count` separate access() calls would.
  template <typename Reporter>
  void access_strided(std::size_t lo, std::size_t elem, std::size_t stride,
                      std::size_t count, bool is_write, const AccessInfo& cur,
                      const VectorClock& vc, Reporter&& report) {
    if (elem == 0) return;
    std::size_t pos = first_ending_after(lo);
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t a = lo + k * stride;
      const std::size_t b = a + elem;
      while (pos < segs_.size() && segs_[pos].hi <= a) ++pos;
      if (!tiled(pos, a, b)) {
        reshape(a, elem, stride, count - k);
        pos = first_ending_after(a);
      }
      for (; pos < segs_.size() && segs_[pos].lo < b; ++pos) {
        apply(segs_[pos], is_write, cur, vc, report);
      }
    }
  }

 private:
  struct Segment {
    std::size_t lo = 0;
    std::size_t hi = 0;
    AccessInfo write{};               // write.epoch.clk == 0: never written
    std::vector<AccessInfo> reads{};  // at most one entry per timeline
  };

  template <typename Reporter>
  static void apply(Segment& s, bool is_write, const AccessInfo& cur,
                    const VectorClock& vc, Reporter&& report) {
    if (s.write.epoch.valid() && !vc.covers(s.write.epoch)) {
      report(s.write, /*prior_is_write=*/true);
    }
    if (is_write) {
      for (const AccessInfo& r : s.reads) {
        if (!vc.covers(r.epoch)) report(r, /*prior_is_write=*/false);
      }
      s.write = cur;
      s.reads.clear();
      return;
    }
    for (AccessInfo& r : s.reads) {
      if (r.epoch.tid == cur.epoch.tid) {
        r = cur;
        return;
      }
    }
    s.reads.push_back(cur);
  }

  /// Index of the first segment with hi > p (segments are disjoint and
  /// sorted, so their ends are sorted too).
  [[nodiscard]] std::size_t first_ending_after(std::size_t p) const {
    return static_cast<std::size_t>(
        std::partition_point(segs_.begin(), segs_.end(),
                             [p](const Segment& s) { return s.hi <= p; }) -
        segs_.begin());
  }

  /// True when segments pos, pos+1, ... exactly tile [a, b).
  [[nodiscard]] bool tiled(std::size_t pos, std::size_t a,
                           std::size_t b) const {
    if (pos >= segs_.size() || segs_[pos].lo != a) return false;
    for (;; ++pos) {
      const std::size_t hi = segs_[pos].hi;
      if (hi >= b) return hi == b;
      if (pos + 1 == segs_.size() || segs_[pos + 1].lo != hi) return false;
    }
  }

  /// One merge pass making every element [a_k, a_k + elem) of the strided
  /// run exactly tiled by segments: straddling segments split (both halves
  /// keep the history), uncovered bytes inside an element get fresh
  /// segments. Bytes between elements are left as they are.
  void reshape(std::size_t lo, std::size_t elem, std::size_t stride,
               std::size_t count) {
    std::vector<Segment> next;
    next.reserve(segs_.size() + 2 * count + 1);
    std::size_t j = 0;
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t a = lo + k * stride;
      const std::size_t b = a + elem;
      while (j < segs_.size() && segs_[j].hi <= a) {
        next.push_back(std::move(segs_[j++]));
      }
      if (j < segs_.size() && segs_[j].lo < a) {  // straddles a: split
        next.push_back(segs_[j]);
        next.back().hi = a;
        segs_[j].lo = a;
      }
      std::size_t cursor = a;
      while (cursor < b) {
        if (j == segs_.size() || segs_[j].lo >= b) {
          next.push_back(Segment{cursor, b, {}, {}});
          break;
        }
        if (segs_[j].lo > cursor) {
          next.push_back(Segment{cursor, segs_[j].lo, {}, {}});
          cursor = segs_[j].lo;
          continue;
        }
        if (segs_[j].hi > b) {  // straddles b: split
          next.push_back(segs_[j]);
          next.back().hi = b;
          segs_[j].lo = b;
          break;
        }
        cursor = segs_[j].hi;
        next.push_back(std::move(segs_[j++]));
      }
    }
    for (; j < segs_.size(); ++j) next.push_back(std::move(segs_[j]));
    segs_.swap(next);
  }

  std::vector<Segment> segs_;  // sorted by lo; disjoint
};

}  // namespace check
