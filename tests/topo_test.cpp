// Topology layer tests: routes, link contention, multi-node costing, and the
// observer's link-occupancy stream. Carries the `topo` CTest label so CI can
// gate on it standalone (`ctest -L topo`).
//
// The contention numbers are hand-derived from the progressive-filling rules
// in src/topo/ledger.hpp with the default LinkSpec latencies (device put
// issue 900 ns, device-initiated latency 1100 ns).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exec/comm.hpp"
#include "fnv_digest.hpp"
#include "sim/observe.hpp"
#include "sim/rng.hpp"
#include "topo/ledger.hpp"
#include "topo/router.hpp"
#include "topo/topology.hpp"
#include "vgpu/costmodel.hpp"
#include "vgpu/machine.hpp"

namespace {

using sim::Nanos;
using vgpu::MachineSpec;
using vgpu::TransferKind;

// Awaits one transfer and records the simulated instant it delivered.
sim::Task timed_transfer(vgpu::Machine& m, int src, int dst, double bytes,
                         TransferKind kind, Nanos& done_at) {
  co_await m.transfer(src, dst, bytes, kind, 0, "timed");
  done_at = m.engine().now();
}

sim::Task timed_staging(vgpu::Machine& m, int dev, double bytes, bool to_host,
                        Nanos& done_at) {
  co_await m.staging_transfer(dev, bytes, to_host, "timed_staging");
  done_at = m.engine().now();
}

// Five devices; 0 and 1 reach 2 through a shared switch downlink, 3 -> 4 is
// a disjoint direct wire. All links 250 GB/s shared.
topo::Topology fan_in_topology() {
  topo::Topology t;
  for (int i = 0; i < 5; ++i) t.add_device("gpu" + std::to_string(i));
  const int sw = t.add_node(topo::NodeKind::kSwitch, "sw");
  t.add_link(t.device_nodes[0], sw, 250.0, 0, topo::LinkPolicy::kShared, "up0");
  t.add_link(t.device_nodes[1], sw, 250.0, 0, topo::LinkPolicy::kShared, "up1");
  t.add_link(sw, t.device_nodes[2], 250.0, 0, topo::LinkPolicy::kShared, "dn2");
  t.add_link(t.device_nodes[3], t.device_nodes[4], 250.0, 0,
             topo::LinkPolicy::kShared, "direct34");
  return t;
}

MachineSpec fan_in_spec() {
  MachineSpec s;
  s.num_devices = 5;
  s.topology = fan_in_topology();
  return s;
}

TEST(TopoRoutes, CrossbarReExpressesTheFlatModel) {
  vgpu::Machine m(MachineSpec::hgx_a100(4));
  const topo::Route& r = m.router().route(1, 3);
  EXPECT_EQ(r.links.size(), 1u);
  EXPECT_EQ(r.min_bw, 250.0);
  EXPECT_EQ(r.extra_latency, 0);
  EXPECT_FALSE(r.contended);
  EXPECT_EQ(m.router().max_extra_latency(), 0);
  // Per-ordered-pair lanes: 4*3 device links + 2*4 staging links.
  EXPECT_EQ(m.topology().links.size(), 20u);
}

TEST(TopoRoutes, PcieTreeSharesTheTree) {
  vgpu::Machine m(MachineSpec::dgx_pcie(8));
  // Same switch group: dev -> plx0 -> dev, one hop latency each way.
  const topo::Route& near = m.router().route(0, 1);
  EXPECT_EQ(near.links.size(), 2u);
  EXPECT_EQ(near.extra_latency, 600);
  EXPECT_TRUE(near.contended);
  EXPECT_EQ(near.min_bw, 12.0);
  // Cross-group: up through the root and down the other switch.
  const topo::Route& far = m.router().route(0, 4);
  EXPECT_EQ(far.links.size(), 4u);
  EXPECT_EQ(far.extra_latency, 1200);
  EXPECT_EQ(m.router().max_extra_latency(), 1200);
}

TEST(TopoRoutes, UnroutablePairThrows) {
  MachineSpec s = fan_in_spec();
  vgpu::Machine m(s);
  EXPECT_NO_THROW(static_cast<void>(m.router().route(0, 2)));
  // No reverse path through the fan-in switch, no path across components.
  EXPECT_THROW(static_cast<void>(m.router().route(2, 0)), std::logic_error);
  EXPECT_THROW(static_cast<void>(m.router().route(0, 3)), std::logic_error);
}

// Two transfers forced through one shared downlink each get half the wire;
// a transfer on a disjoint route is unaffected.
TEST(TopoContention, SharedLinkHalvesDisjointUnaffected) {
  vgpu::Machine m(fan_in_spec());
  m.enable_all_peer_access();
  Nanos a = 0;
  Nanos b = 0;
  Nanos c = 0;
  m.engine().spawn(
      timed_transfer(m, 0, 2, 250000.0, TransferKind::kDeviceInitiated, a));
  m.engine().spawn(
      timed_transfer(m, 1, 2, 250000.0, TransferKind::kDeviceInitiated, b));
  m.engine().spawn(
      timed_transfer(m, 3, 4, 250000.0, TransferKind::kDeviceInitiated, c));
  m.engine().run();
  // dn2 carries both: 125 GB/s each -> 900 issue + 2000 wire + 1100 latency.
  EXPECT_EQ(a, 4000);
  EXPECT_EQ(b, 4000);
  // Solo wire time would be 1000 ns; neither beats the halved bandwidth.
  EXPECT_GE(a, 900 + 2 * 1000 + 1100);
  // direct34 is uncontested: full 250 GB/s.
  EXPECT_EQ(c, 3000);
}

// When a flight lands, the survivor refills to the freed bandwidth — and the
// cancelled stale wake-up must not inflate simulated time.
TEST(TopoContention, BandwidthRefillsWhenAFlightLands) {
  vgpu::Machine m(fan_in_spec());
  m.enable_all_peer_access();
  Nanos a = 0;
  Nanos b = 0;
  m.engine().spawn(
      timed_transfer(m, 0, 2, 500000.0, TransferKind::kDeviceInitiated, a));
  m.engine().spawn(
      timed_transfer(m, 1, 2, 125000.0, TransferKind::kDeviceInitiated, b));
  m.engine().run();
  // B: 125 GB/s until its 125000 B drain at t=1900, lands 1900 + 1100.
  EXPECT_EQ(b, 3000);
  // A: 125000 B at 125 GB/s, then the remaining 375000 B at the full
  // 250 GB/s -> wire ends 3400, lands 4500.
  EXPECT_EQ(a, 4500);
  // The ledger's superseded 4900 ns wake-up was cancelled; it must not have
  // dragged the clock past the last real event.
  EXPECT_EQ(m.engine().now(), 4500);
}

TEST(TopoContention, SamePairDeliveryStaysFifo) {
  vgpu::Machine m(fan_in_spec());
  m.enable_all_peer_access();
  // Big first, small second, same (0, 2) pair: fair sharing would drain the
  // small one first, but same-pair delivery is FIFO in admission order.
  Nanos big = 0;
  Nanos small = 0;
  m.engine().spawn(
      timed_transfer(m, 0, 2, 500000.0, TransferKind::kDeviceInitiated, big));
  m.engine().spawn(
      timed_transfer(m, 0, 2, 1000.0, TransferKind::kDeviceInitiated, small));
  m.engine().run();
  EXPECT_GE(small, big);
}

TEST(TopoMultiNode, InterNodeStrictlyCostlierThanIntra) {
  vgpu::Machine m(MachineSpec::multi_node(2, 2));
  m.enable_all_peer_access();
  Nanos intra = 0;
  Nanos inter = 0;
  m.engine().spawn(
      timed_transfer(m, 0, 1, 250000.0, TransferKind::kDeviceInitiated, intra));
  m.engine().run();
  m.engine().spawn(
      timed_transfer(m, 1, 2, 250000.0, TransferKind::kDeviceInitiated, inter));
  m.engine().run();
  // Intra-node NVLink lane behaves exactly like the flat model.
  EXPECT_EQ(intra, 900 + 1000 + 1100);
  // Inter-node: 25 GB/s network bottleneck and 200 + 1300 + 200 ns of hop
  // latency on top of the device-initiated latency.
  const Nanos t1 = intra;  // second run starts where the first ended
  EXPECT_EQ(inter - t1, 900 + 10000 + 1100 + 1700);
  EXPECT_GT(inter - t1, intra);
}

TEST(TopoNeighborOrder, FlatKeepsUpDownMultiNodePutsLongHaulFirst) {
  vgpu::Machine flat(MachineSpec::hgx_a100(4));
  EXPECT_EQ(exec::halo_neighbor_order(flat, 1, 4), (std::array<int, 2>{0, 2}));
  EXPECT_EQ(exec::halo_neighbor_order(flat, 0, 4), (std::array<int, 2>{-1, 1}));
  EXPECT_EQ(exec::halo_neighbor_order(flat, 3, 4), (std::array<int, 2>{2, -1}));
  vgpu::Machine mn(MachineSpec::multi_node(2, 2));
  // Device 1's down neighbour (2) is across the network: issued first.
  EXPECT_EQ(exec::halo_neighbor_order(mn, 1, 4), (std::array<int, 2>{2, 0}));
  // Device 2's up neighbour (1) is the remote one: default order already
  // leads with it.
  EXPECT_EQ(exec::halo_neighbor_order(mn, 2, 4), (std::array<int, 2>{1, 3}));
}

TEST(TopoStaging, CrossbarStagingMatchesTheFlatFormula) {
  vgpu::Machine m(MachineSpec::hgx_a100(2));
  Nanos down = 0;
  m.engine().spawn(timed_staging(m, 0, 120000.0, /*to_host=*/true, down));
  m.engine().run();
  // 120000 B at 12 GB/s + host_staging_latency, like the flat model charged.
  EXPECT_EQ(down, 10000 + 10000);
  // Staging never serializes on the crossbar: two concurrent stagings of the
  // same device cost the same as one.
  Nanos s1 = 0;
  Nanos s2 = 0;
  const Nanos t0 = m.engine().now();
  m.engine().spawn(timed_staging(m, 0, 120000.0, /*to_host=*/true, s1));
  m.engine().spawn(timed_staging(m, 0, 120000.0, /*to_host=*/false, s2));
  m.engine().run();
  EXPECT_EQ(s1 - t0, 20000);
  EXPECT_EQ(s2 - t0, 20000);
}

// Collects the ledger's link-occupancy stream.
class LinkLog : public sim::Observer {
 public:
  void on_link_busy(std::uint64_t flight, std::string_view link, int concurrent,
                    Nanos queued_ns, std::string_view what) override {
    static_cast<void>(flight);
    static_cast<void>(what);
    busy.push_back(std::string(link) + "#" + std::to_string(concurrent) + "+" +
                   std::to_string(queued_ns));
  }
  void on_link_release(std::uint64_t flight, std::string_view link,
                       int concurrent) override {
    static_cast<void>(flight);
    releases.push_back(std::string(link) + "#" + std::to_string(concurrent));
  }
  std::vector<std::string> busy;
  std::vector<std::string> releases;
};

TEST(TopoObserver, LinkEventsFireAndNeverMoveTheClock) {
  auto run = [](sim::Observer* o, LinkLog* log) {
    vgpu::Machine m(fan_in_spec());
    if (o != nullptr) m.engine().set_observer(o);
    m.enable_all_peer_access();
    Nanos a = 0;
    Nanos b = 0;
    m.engine().spawn(
        timed_transfer(m, 0, 2, 250000.0, TransferKind::kDeviceInitiated, a));
    m.engine().spawn(
        timed_transfer(m, 1, 2, 250000.0, TransferKind::kDeviceInitiated, b));
    m.engine().run();
    if (log != nullptr) {
      EXPECT_EQ(log->busy.size(), 4u);      // two flights x two links
      EXPECT_EQ(log->releases.size(), 4u);
      // The second admission sees the downlink already carrying one flight.
      EXPECT_EQ(log->busy[0], "up0#1+0");
      EXPECT_EQ(log->busy[1], "dn2#1+0");
      EXPECT_EQ(log->busy[2], "up1#1+0");
      EXPECT_EQ(log->busy[3], "dn2#2+0");
    }
    return std::pair{a, b};
  };
  LinkLog log;
  const auto with = run(&log, &log);
  const auto without = run(nullptr, nullptr);
  EXPECT_EQ(with, without);  // observation is timing-neutral
}

TEST(TopoObserver, ExclusiveLanesReportQueueing) {
  vgpu::Machine m(MachineSpec::hgx_a100(2));
  LinkLog log;
  m.engine().set_observer(&log);
  m.enable_all_peer_access();
  Nanos a = 0;
  Nanos b = 0;
  m.engine().spawn(
      timed_transfer(m, 0, 1, 250000.0, TransferKind::kDeviceInitiated, a));
  m.engine().spawn(
      timed_transfer(m, 0, 1, 250000.0, TransferKind::kDeviceInitiated, b));
  m.engine().run();
  ASSERT_EQ(log.busy.size(), 2u);
  EXPECT_EQ(log.busy[0], "nvl:gpu0>gpu1#1+0");
  // The second transfer queued one wire time (1000 ns) behind the first.
  EXPECT_EQ(log.busy[1], "nvl:gpu0>gpu1#1+1000");
  EXPECT_EQ(log.releases.size(), 2u);
  // FIFO lane, unchanged flat-model timing.
  EXPECT_EQ(a, 3000);
  EXPECT_EQ(b, 4000);
}

// --- Ledger pins ------------------------------------------------------------
// Seeded batches of contended transfers on the shared-trunk machines, with and
// without link-degradation windows. The completion instants and the
// observer's per-link concurrency counts are pinned to values captured from
// the map-based LinkLedger::recompute; the scratch-based one must reproduce
// every rate and finish time bitwise.

using testutil::Digest;

// Counts every link event into a digest, with the concurrency it reported.
class LinkDigest : public sim::Observer {
 public:
  void on_link_busy(std::uint64_t flight, std::string_view link, int concurrent,
                    Nanos queued_ns, std::string_view what) override {
    static_cast<void>(what);
    d.add(flight);
    d.add(link);
    d.add(static_cast<std::uint64_t>(concurrent));
    d.add(static_cast<std::uint64_t>(queued_ns));
    ++busy;
    if (concurrent > max_concurrent) max_concurrent = concurrent;
  }
  void on_link_release(std::uint64_t flight, std::string_view link,
                       int concurrent) override {
    d.add(~flight);
    d.add(link);
    d.add(static_cast<std::uint64_t>(concurrent));
    ++releases;
  }
  void on_fault(const sim::Actor& who, std::string_view site,
                std::string_view what) override {
    static_cast<void>(who);
    d.add(site);
    d.add(what);
    ++faults;
  }
  Digest d;
  int busy = 0;
  int releases = 0;
  int faults = 0;
  int max_concurrent = 0;
};

sim::Task delayed_transfer(vgpu::Machine& m, Nanos start, int src, int dst,
                           double bytes, TransferKind kind, Nanos& done_at) {
  co_await m.engine().delay(start);
  co_await m.transfer(src, dst, bytes, kind, 0, "pin");
  done_at = m.engine().now();
}

sim::Task delayed_staging(vgpu::Machine& m, Nanos start, int dev, double bytes,
                          bool to_host, Nanos& done_at) {
  co_await m.engine().delay(start);
  co_await m.staging_transfer(dev, bytes, to_host, "pin_staging");
  done_at = m.engine().now();
}

struct PinRun {
  std::uint64_t instants = 0;  // digest of every completion instant
  std::uint64_t events = 0;    // digest of the link-event stream
  Nanos last = 0;
  int busy = 0;
  int releases = 0;
  int faults = 0;
  int max_concurrent = 0;
};

// `count` transfers drawn from `seed`: random ordered pairs (a few staging
// transfers to and from the host), 4 KiB..1 MiB, starts spread over 60 us so
// flights overlap, land and re-admit.
PinRun run_pinned_batch(MachineSpec spec, std::uint64_t seed, int count,
                        bool degrade) {
  if (degrade) {
    spec.faults.seed = seed;
    spec.faults.rate = 0.3;
    spec.faults.classes = fault::kClassLink | fault::kClassFlap;
    spec.faults.fault_window = sim::usec(5);
  }
  vgpu::Machine m(spec);
  LinkDigest log;
  m.engine().set_observer(&log);
  m.enable_all_peer_access();
  const int n = spec.num_devices;
  std::vector<Nanos> done(static_cast<std::size_t>(count), 0);
  for (int i = 0; i < count; ++i) {
    const auto u = static_cast<std::uint64_t>(i);
    const auto src = static_cast<int>(sim::stream_mix(seed, 1, u, 0) %
                                      static_cast<std::uint64_t>(n));
    auto dst = static_cast<int>(sim::stream_mix(seed, 2, u, 0) %
                                static_cast<std::uint64_t>(n - 1));
    if (dst >= src) ++dst;
    const double bytes = static_cast<double>(
        4096 + sim::stream_mix(seed, 3, u, 0) % (1u << 20));
    const auto start =
        static_cast<Nanos>(sim::stream_mix(seed, 4, u, 0) % 60000);
    Nanos& at = done[static_cast<std::size_t>(i)];
    const std::uint64_t shape = sim::stream_mix(seed, 5, u, 0) % 8;
    if (shape == 0) {
      const bool to_host = (sim::stream_mix(seed, 6, u, 0) & 1) != 0;
      m.engine().spawn(delayed_staging(m, start, src, bytes, to_host, at));
    } else {
      const TransferKind kind = shape == 1 ? TransferKind::kHostInitiated
                                           : TransferKind::kDeviceInitiated;
      m.engine().spawn(delayed_transfer(m, start, src, dst, bytes, kind, at));
    }
  }
  m.engine().run();
  PinRun r;
  Digest d;
  for (Nanos t : done) {
    d.add(static_cast<std::uint64_t>(t));
    if (t > r.last) r.last = t;
  }
  r.instants = d.h;
  r.events = log.d.h;
  r.busy = log.busy;
  r.releases = log.releases;
  r.faults = log.faults;
  r.max_concurrent = log.max_concurrent;
  return r;
}

struct Pin {
  bool multi_node;
  bool degrade;
  std::uint64_t seed;
  std::uint64_t instants;
  std::uint64_t events;
  Nanos last;
  int busy;  // == releases: every flight's links are released once
  int faults;
  int max_concurrent;
};

constexpr Pin kPins[] = {
    {false, false, 11, 0xcc46982021386bbdull, 0x1a89197b85f95e63ull,
     617913, 152, 0, 15},
    {false, false, 12, 0x3c89f1bcb8fc24ffull, 0x8e18a3e3c8ff83e3ull,
     862645, 136, 0, 15},
    {false, false, 13, 0xb8449c49c1a8465dull, 0x8669ab9a63d31249ull,
     843082, 142, 0, 16},
    {false, true, 11, 0x4f6686426436ce59ull, 0x913bd9d88c65115bull,
     1807336, 152, 249, 16},
    {false, true, 12, 0x7325450053f35c99ull, 0xb496b3873e27fb7bull,
     1284901, 136, 248, 15},
    {false, true, 13, 0x5db5798386ca265dull, 0x4ae4832a882da8d3ull,
     1549715, 142, 203, 16},
    {true, false, 11, 0x7073646a7b3af943ull, 0x5a62eed94980e552ull,
     284342, 104, 0, 12},
    {true, false, 12, 0xcf4965713045661full, 0xf3c11f94ef3eddc4ull,
     292262, 88, 0, 10},
    {true, false, 13, 0x394fd155b71f8655ull, 0x7adecc0403fe3541ull,
     357205, 94, 0, 14},
    {true, true, 11, 0xde57e154182da73bull, 0x875d4bc28fa57b61ull,
     586373, 104, 111, 12},
    {true, true, 12, 0x0c20137bd7e963f8ull, 0x7d06c394c129db39ull,
     885519, 88, 114, 11},
    {true, true, 13, 0x3187dbe6775ba12full, 0x2361bab99ec92dfbull,
     456591, 94, 100, 14},
};

TEST(LedgerPins, SeededBatchesMatchThePinnedTimeline) {
  for (const Pin& p : kPins) {
    const MachineSpec spec = p.multi_node ? MachineSpec::multi_node(2, 4)
                                          : MachineSpec::dgx_pcie(8);
    const PinRun r = run_pinned_batch(spec, p.seed, 48, p.degrade);
    SCOPED_TRACE(testing::Message()
                 << (p.multi_node ? "multi_node" : "dgx_pcie")
                 << " degrade=" << p.degrade << " seed=" << p.seed);
    EXPECT_EQ(r.instants, p.instants);
    EXPECT_EQ(r.events, p.events);
    EXPECT_EQ(r.last, p.last);
    EXPECT_EQ(r.busy, p.busy);
    EXPECT_EQ(r.releases, p.busy);
    EXPECT_EQ(r.faults, p.faults);
    EXPECT_EQ(r.max_concurrent, p.max_concurrent);
  }
}

}  // namespace
