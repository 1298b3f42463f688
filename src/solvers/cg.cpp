#include "solvers/cg.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cpufree/halo.hpp"
#include "cpufree/launch.hpp"
#include "exec/comm.hpp"
#include "exec/launch.hpp"
#include "exec/policy.hpp"
#include "exec/sync.hpp"
#include "hostmpi/comm.hpp"
#include "sim/memo.hpp"
#include "vgpu/host.hpp"
#include "vgpu/kernel.hpp"
#include "vshmem/world.hpp"

namespace solvers {

namespace {

// Streaming traffic per point of each CG phase (read + write doubles).
constexpr double kSpmvBytes = 16.0;    // read p (cached halo rows), write q
constexpr double kDotBytes = 16.0;     // read two vectors
constexpr double kAxpy2Bytes = 48.0;   // read p,q,x,r; write x,r
constexpr double kPUpdateBytes = 24.0; // read r,p; write p

double rhs_value(std::size_t gy, std::size_t gx) {
  return static_cast<double>((gy * 53 + gx * 29) % 83) / 83.0;
}

/// Row partition identical to the stencil slab split.
std::vector<std::size_t> split_rows(std::size_t ny, int ranks) {
  std::vector<std::size_t> rows;
  const std::size_t base = ny / static_cast<std::size_t>(ranks);
  const std::size_t rem = ny % static_cast<std::size_t>(ranks);
  for (int r = 0; r < ranks; ++r) {
    rows.push_back(base + (static_cast<std::size_t>(r) < rem ? 1 : 0));
  }
  return rows;
}

/// Local state of one rank. Layout of p: (rows+2)*nx with halo rows 0 and
/// rows+1; x/r/q/b use the same layout (halo rows unused) for index parity.
struct RankState {
  std::size_t rows = 0;
  std::size_t offset = 0;
  std::size_t nx = 0;
  std::size_t ny = 0;

  [[nodiscard]] std::size_t idx(std::size_t r, std::size_t j) const {
    return r * nx + j;
  }

  /// q = A p over the interior rows (reads p halos).
  void spmv(std::span<const double> p, std::span<double> q) const {
    for (std::size_t r = 1; r <= rows; ++r) {
      const std::size_t gy = offset + r - 1;
      for (std::size_t j = 0; j < nx; ++j) {
        const double up = gy > 0 ? p[idx(r - 1, j)] : 0.0;
        const double down = gy + 1 < ny ? p[idx(r + 1, j)] : 0.0;
        const double west = j > 0 ? p[idx(r, j - 1)] : 0.0;
        const double east = j + 1 < nx ? p[idx(r, j + 1)] : 0.0;
        q[idx(r, j)] = 4.0 * p[idx(r, j)] - up - down - west - east;
      }
    }
  }

  [[nodiscard]] double dot(std::span<const double> a,
                           std::span<const double> b) const {
    double acc = 0.0;
    for (std::size_t r = 1; r <= rows; ++r) {
      for (std::size_t j = 0; j < nx; ++j) acc += a[idx(r, j)] * b[idx(r, j)];
    }
    return acc;
  }

  void axpy2(double alpha, std::span<const double> p, std::span<const double> q,
             std::span<double> x, std::span<double> r_vec) const {
    for (std::size_t r = 1; r <= rows; ++r) {
      for (std::size_t j = 0; j < nx; ++j) {
        x[idx(r, j)] += alpha * p[idx(r, j)];
        r_vec[idx(r, j)] -= alpha * q[idx(r, j)];
      }
    }
  }

  void p_update(double beta, std::span<const double> r_vec,
                std::span<double> p) const {
    for (std::size_t r = 1; r <= rows; ++r) {
      for (std::size_t j = 0; j < nx; ++j) {
        p[idx(r, j)] = r_vec[idx(r, j)] + beta * p[idx(r, j)];
      }
    }
  }

  [[nodiscard]] double points() const {
    return static_cast<double>(rows) * static_cast<double>(nx);
  }
};

std::vector<RankState> make_states(const CgConfig& cfg, int ranks) {
  std::vector<RankState> st;
  const auto rows = split_rows(cfg.ny, ranks);
  std::size_t off = 0;
  for (int r = 0; r < ranks; ++r) {
    RankState s;
    s.rows = rows[static_cast<std::size_t>(r)];
    s.offset = off;
    s.nx = cfg.nx;
    s.ny = cfg.ny;
    off += s.rows;
    st.push_back(s);
  }
  return st;
}

void init_vectors(const RankState& s, std::span<double> b, std::span<double> r,
                  std::span<double> p) {
  for (std::size_t row = 1; row <= s.rows; ++row) {
    const std::size_t gy = s.offset + row - 1;
    for (std::size_t j = 0; j < s.nx; ++j) {
      const double v = rhs_value(gy, j);
      b[s.idx(row, j)] = v;
      r[s.idx(row, j)] = v;  // x0 = 0 -> r0 = b
      p[s.idx(row, j)] = v;
    }
  }
}

/// Combines per-rank partials in rank order — the reduction order all
/// variants (and the reference) share, making results bitwise comparable.
double combine(const std::vector<double>& partials) {
  double acc = 0.0;
  for (double v : partials) acc += v;
  return acc;
}

/// Everything cg_reference reads, and nothing else (sim::Memo key).
struct ReferenceKey {
  std::size_t nx = 0;
  std::size_t ny = 0;
  int max_iterations = 0;
  double tolerance = 0.0;
  int ranks = 0;

  bool operator==(const ReferenceKey&) const = default;
};

CgResult compute_reference(const CgConfig& cfg, int ranks) {
  auto states = make_states(cfg, ranks);
  const int n = ranks;
  std::vector<std::vector<double>> b(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> x(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> r(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> p(static_cast<std::size_t>(n));
  std::vector<std::vector<double>> q(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    const auto sz = (states[static_cast<std::size_t>(d)].rows + 2) * cfg.nx;
    b[static_cast<std::size_t>(d)].assign(sz, 0.0);
    x[static_cast<std::size_t>(d)].assign(sz, 0.0);
    r[static_cast<std::size_t>(d)].assign(sz, 0.0);
    p[static_cast<std::size_t>(d)].assign(sz, 0.0);
    q[static_cast<std::size_t>(d)].assign(sz, 0.0);
    init_vectors(states[static_cast<std::size_t>(d)],
                 b[static_cast<std::size_t>(d)], r[static_cast<std::size_t>(d)],
                 p[static_cast<std::size_t>(d)]);
  }
  auto exchange_halos = [&] {
    for (int d = 0; d < n; ++d) {
      const auto& s = states[static_cast<std::size_t>(d)];
      if (d > 0) {
        const auto& up = states[static_cast<std::size_t>(d - 1)];
        for (std::size_t j = 0; j < cfg.nx; ++j) {
          p[static_cast<std::size_t>(d)][s.idx(0, j)] =
              p[static_cast<std::size_t>(d - 1)][up.idx(up.rows, j)];
        }
      }
      if (d + 1 < n) {
        const auto& down = states[static_cast<std::size_t>(d + 1)];
        for (std::size_t j = 0; j < cfg.nx; ++j) {
          p[static_cast<std::size_t>(d)][s.idx(s.rows + 1, j)] =
              p[static_cast<std::size_t>(d + 1)][down.idx(1, j)];
        }
      }
    }
  };
  auto reduce = [&](auto&& fn) {
    std::vector<double> partials;
    for (int d = 0; d < n; ++d) partials.push_back(fn(d));
    return combine(partials);
  };

  CgResult res;
  double rz = reduce([&](int d) {
    const auto& s = states[static_cast<std::size_t>(d)];
    return s.dot(r[static_cast<std::size_t>(d)], r[static_cast<std::size_t>(d)]);
  });
  for (int t = 1; t <= cfg.max_iterations; ++t) {
    exchange_halos();
    for (int d = 0; d < n; ++d) {
      const auto& s = states[static_cast<std::size_t>(d)];
      s.spmv(p[static_cast<std::size_t>(d)], q[static_cast<std::size_t>(d)]);
    }
    const double pq = reduce([&](int d) {
      const auto& s = states[static_cast<std::size_t>(d)];
      return s.dot(p[static_cast<std::size_t>(d)], q[static_cast<std::size_t>(d)]);
    });
    const double alpha = rz / pq;
    for (int d = 0; d < n; ++d) {
      const auto& s = states[static_cast<std::size_t>(d)];
      s.axpy2(alpha, p[static_cast<std::size_t>(d)],
              q[static_cast<std::size_t>(d)], x[static_cast<std::size_t>(d)],
              r[static_cast<std::size_t>(d)]);
    }
    const double rr = reduce([&](int d) {
      const auto& s = states[static_cast<std::size_t>(d)];
      return s.dot(r[static_cast<std::size_t>(d)], r[static_cast<std::size_t>(d)]);
    });
    res.rr_history.push_back(rr);
    res.iterations_run = t;
    res.final_rr = rr;
    if (rr < cfg.tolerance) break;
    const double beta = rr / rz;
    rz = rr;
    for (int d = 0; d < n; ++d) {
      const auto& s = states[static_cast<std::size_t>(d)];
      s.p_update(beta, r[static_cast<std::size_t>(d)],
                 p[static_cast<std::size_t>(d)]);
    }
  }
  return res;
}

}  // namespace

CgResult cg_reference(const CgConfig& cfg, int ranks) {
  static sim::Memo<ReferenceKey, CgResult, sim::kReferenceMemoCapacity> memo;
  const ReferenceKey key{cfg.nx, cfg.ny, cfg.max_iterations, cfg.tolerance,
                         ranks};
  return memo.get(key, [&] { return compute_reference(cfg, ranks); });
}

// --- CPU-Free persistent CG ---------------------------------------------------

namespace {

/// Everything the CPU-Free CG's persistent bodies dereference, heap-held so
/// an externally-driven job (CgCpufreeJob) can outlive the building frame.
struct CgCore {
  CgConfig cfg;
  vshmem::World* world = nullptr;
  int n = 0;
  int persistent_blocks = 0;
  std::vector<RankState> states;
  vshmem::Sym<double> p, x, r, q, b, slots0, slots1;
  std::unique_ptr<vshmem::SignalSet> sig;
  std::size_t top_halo = 0;
  std::size_t bottom_halo = 0;
  double rz0 = 1.0;
  // Shared result cells (PE 0 publishes).
  std::shared_ptr<std::vector<double>> history =
      std::make_shared<std::vector<double>>();
  std::shared_ptr<int> iterations_run = std::make_shared<int>(0);
  std::shared_ptr<double> final_rr = std::make_shared<double>(0.0);
};

/// Allocates and initializes the CG problem on `world` (whole machine or a
/// device slice); `spec` sizes the persistent grid.
std::unique_ptr<CgCore> make_cg_core(vshmem::World& world,
                                     const vgpu::MachineSpec& spec,
                                     const CgConfig& cfg) {
  auto core = std::make_unique<CgCore>();
  core->cfg = cfg;
  core->world = &world;
  const int n = world.n_pes();
  core->n = n;
  core->persistent_blocks = exec::resolve_persistent_blocks(
      cfg.persistent_blocks, spec, cfg.threads_per_block);
  core->states = make_states(cfg, n);
  auto& states = core->states;

  const std::size_t vec_size =
      cfg.functional
          ? (*std::max_element(states.begin(), states.end(),
                               [](const RankState& a, const RankState& b) {
                                 return a.rows < b.rows;
                               })).rows *
                    cfg.nx +
                2 * cfg.nx
          : 1;
  core->p = world.alloc<double>(vec_size, "p");
  core->x = world.alloc<double>(vec_size, "x");
  core->r = world.alloc<double>(vec_size, "r");
  core->q = world.alloc<double>(vec_size, "q");
  core->b = world.alloc<double>(vec_size, "b");
  // Allreduce slots and flags: channel 0 = p.q, channel 1 = r.r; per-peer
  // iteration flags at indices channel*n + peer; halo flags at 2n + {0,1}.
  core->slots0 =
      world.alloc<double>(static_cast<std::size_t>(n), "pq_slots");
  core->slots1 =
      world.alloc<double>(static_cast<std::size_t>(n), "rr_slots");
  core->sig = world.alloc_signals(2 * static_cast<std::size_t>(n) + 2);
  core->top_halo = 2 * static_cast<std::size_t>(n);
  core->bottom_halo = core->top_halo + 1;
  for (int pe = 0; pe < n; ++pe) {
    core->sig->at(pe, core->top_halo).set(1);
    core->sig->at(pe, core->bottom_halo).set(1);
  }

  vshmem::Sym<double>& p = core->p;
  if (cfg.functional) {
    for (int d = 0; d < n; ++d) {
      init_vectors(states[static_cast<std::size_t>(d)], core->b.on(d),
                   core->r.on(d), p.on(d));
    }
    // Pre-fill p halos with the initial neighbour boundaries: iteration 1's
    // halo flags are pre-signaled, so the data must already be there (the
    // kernel only exchanges at the END of each iteration for the next one).
    for (int d = 0; d < n; ++d) {
      const auto& s = states[static_cast<std::size_t>(d)];
      if (d > 0) {
        const auto& up = states[static_cast<std::size_t>(d - 1)];
        for (std::size_t j = 0; j < cfg.nx; ++j) {
          p.on(d)[s.idx(0, j)] = p.on(d - 1)[up.idx(up.rows, j)];
        }
      }
      if (d + 1 < n) {
        const auto& down = states[static_cast<std::size_t>(d + 1)];
        for (std::size_t j = 0; j < cfg.nx; ++j) {
          p.on(d)[s.idx(s.rows + 1, j)] = p.on(d + 1)[down.idx(1, j)];
        }
      }
    }
  }

  // Initial rz = dot(r0, r0): computed host-side at setup (part of problem
  // initialization, not the measured loop).
  std::vector<double> rz0_partials;
  if (cfg.functional) {
    for (int d = 0; d < n; ++d) {
      rz0_partials.push_back(
          states[static_cast<std::size_t>(d)].dot(core->r.on(d),
                                                  core->r.on(d)));
    }
  }
  core->rz0 = cfg.functional ? combine(rz0_partials) : 1.0;
  return core;
}

/// Builds the per-PE persistent block groups. The bodies hold references
/// into `core`, which must stay alive until the kernels drain.
std::vector<cpufree::DeviceGroups> build_cg_groups(CgCore& core) {
  vshmem::World& world = *core.world;
  const CgConfig& cfg = core.cfg;
  const int n = core.n;
  const int persistent_blocks = core.persistent_blocks;
  auto& states = core.states;
  vshmem::Sym<double>& p = core.p;
  vshmem::Sym<double>& x = core.x;
  vshmem::Sym<double>& r = core.r;
  vshmem::Sym<double>& q = core.q;
  vshmem::Sym<double>& slots0 = core.slots0;
  vshmem::Sym<double>& slots1 = core.slots1;
  auto& sig = core.sig;
  const std::size_t kTopHalo = core.top_halo;
  const std::size_t kBottomHalo = core.bottom_halo;
  const double rz0 = core.rz0;
  auto history = core.history;
  auto iterations_run = core.iterations_run;
  auto final_rr = core.final_rr;

  std::vector<cpufree::DeviceGroups> groups(static_cast<std::size_t>(n));
  for (int dev = 0; dev < n; ++dev) {
    const RankState* st = &states[static_cast<std::size_t>(dev)];
    // The top neighbour's bottom-halo row index depends on ITS row count.
    const std::size_t up_rows =
        dev > 0 ? states[static_cast<std::size_t>(dev - 1)].rows : 0;
    auto body = [&world, &cfg, st, dev, n, up_rows, &p, &x, &r, &q, &slots0,
                 &slots1, sigp = sig.get(), kTopHalo, kBottomHalo, rz0, history,
                 iterations_run, final_rr](vgpu::KernelCtx& k) -> sim::Task {
      const double pts = st->points();
      const std::size_t halo_count = st->nx;
      double rz = rz0;

      // Halo flags and reduction flags both follow the iteration-number
      // semaphore protocol; the reductions use flag base channel*n.
      cpufree::IterationProtocol proto(world, *sigp);
      auto sum_slots = [&](vshmem::Sym<double>& slots) {
        double acc = 0.0;
        for (int pe = 0; pe < n; ++pe) {
          acc += slots.on(dev)[static_cast<std::size_t>(pe)];
        }
        return acc;
      };

      for (int t = 1; t <= cfg.max_iterations; ++t) {
        // Wait for this iteration's p halos (initial values pre-signaled).
        if (dev > 0) {
          co_await proto.wait_iteration(k, kTopHalo, t);
        }
        if (dev + 1 < n) {
          co_await proto.wait_iteration(k, kBottomHalo, t);
        }
        // The SpMV's halo-row reads are only safe after those waits.
        if (k.engine().observer() != nullptr) {
          if (dev > 0) {
            k.obs_access(sim::MemRange::of(p.on(dev), st->idx(0, 0), st->nx),
                         /*is_write=*/false, "p_halo_read");
          }
          if (dev + 1 < n) {
            k.obs_access(
                sim::MemRange::of(p.on(dev), st->idx(st->rows + 1, 0), st->nx),
                /*is_write=*/false, "p_halo_read");
          }
        }
        std::function<void()> f_spmv;
        if (cfg.functional) {
          f_spmv = [st, &p, &q, dev] { st->spmv(p.on(dev), q.on(dev)); };
        }
        co_await k.compute(pts * kSpmvBytes, 1.0, "spmv", std::move(f_spmv));

        double pq_local = 0.0;
        std::function<void()> f_dot1;
        if (cfg.functional) {
          f_dot1 = [st, &p, &q, dev, &pq_local] {
            pq_local = st->dot(p.on(dev), q.on(dev));
          };
        }
        co_await k.compute(pts * kDotBytes, 1.0, "dot_pq", std::move(f_dot1));
        CO_AWAIT(exec::allreduce_put_wait(world, k, slots0, *sigp,
                                          /*flag_base=*/0, dev, n, t, pq_local,
                                          cfg.functional));
        const double pq = cfg.functional ? sum_slots(slots0) : 1.0;
        const double alpha = cfg.functional ? rz / pq : 0.0;

        std::function<void()> f_axpy;
        if (cfg.functional) {
          f_axpy = [st, alpha, &p, &q, &x, &r, dev] {
            st->axpy2(alpha, p.on(dev), q.on(dev), x.on(dev), r.on(dev));
          };
        }
        co_await k.compute(pts * kAxpy2Bytes, 1.0, "axpy", std::move(f_axpy));

        double rr_local = 0.0;
        std::function<void()> f_dot2;
        if (cfg.functional) {
          f_dot2 = [st, &r, dev, &rr_local] {
            rr_local = st->dot(r.on(dev), r.on(dev));
          };
        }
        co_await k.compute(pts * kDotBytes, 1.0, "dot_rr", std::move(f_dot2));
        CO_AWAIT(exec::allreduce_put_wait(
            world, k, slots1, *sigp,
            /*flag_base=*/static_cast<std::size_t>(n), dev, n, t, rr_local,
            cfg.functional));
        const double rr = cfg.functional ? sum_slots(slots1) : 1.0;

        if (dev == 0) {
          if (cfg.functional) history->push_back(rr);
          *iterations_run = t;
          *final_rr = rr;
        }
        // The convergence decision happens ON the devices; the host never
        // polls a residual. All PEs computed the same rr.
        if (cfg.functional && rr < cfg.tolerance) co_return;

        const double beta = cfg.functional ? rr / rz : 0.0;
        if (cfg.functional) rz = rr;
        std::function<void()> f_pup;
        if (cfg.functional) {
          f_pup = [st, beta, &r, &p, dev] {
            st->p_update(beta, r.on(dev), p.on(dev));
          };
        }
        co_await k.compute(pts * kPUpdateBytes, 1.0, "p_update",
                           std::move(f_pup));

        // Publish next iteration's p boundary rows.
        if (dev > 0) {
          co_await proto.put_and_signal(k, p, st->idx(1, 0),
                                        (up_rows + 1) * st->nx, halo_count,
                                        kBottomHalo, t + 1, dev - 1);
        }
        if (dev + 1 < n) {
          co_await proto.put_and_signal(k, p, st->idx(st->rows, 0),
                                        st->idx(0, 0), halo_count, kTopHalo,
                                        t + 1, dev + 1);
        }
      }
    };
    groups[static_cast<std::size_t>(dev)].push_back(
        vgpu::BlockGroup{"cg", persistent_blocks, std::move(body)});
  }
  return groups;
}

}  // namespace

CgResult run_cg_cpufree(const vgpu::MachineSpec& spec, const CgConfig& cfg) {
  vgpu::Machine machine(spec);
  machine.engine().set_observer(cfg.observer);
  vshmem::World world(machine);
  world.set_functional(cfg.functional);
  machine.trace().set_enabled(cfg.trace);
  auto core = make_cg_core(world, spec, cfg);
  auto groups = build_cg_groups(*core);

  exec::persistent_launch(machine, std::move(groups), cfg.threads_per_block,
                          "cg_cpufree");

  CgResult res;
  res.metrics = cpufree::analyze_run(machine.trace(), machine.engine().now(),
                                     *core->iterations_run);
  cpufree::apply_fault_stats(res.metrics, machine.faults().stats());
  res.iterations_run = *core->iterations_run;
  res.final_rr = *core->final_rr;
  res.rr_history = *core->history;
  return res;
}

// --- Externally-driven CG job (multi-tenant serve) ----------------------------

struct CgCpufreeJob::Impl {
  vgpu::Machine* machine = nullptr;
  std::unique_ptr<CgCore> core;
};

CgCpufreeJob::CgCpufreeJob(vgpu::Machine& machine, vshmem::World& world,
                           const CgConfig& config)
    : impl_(std::make_unique<Impl>()) {
  impl_->machine = &machine;
  impl_->core = make_cg_core(world, machine.spec(), config);
}

CgCpufreeJob::~CgCpufreeJob() = default;

sim::Task CgCpufreeJob::task() {
  CgCore& core = *impl_->core;
  std::vector<int> devices;
  devices.reserve(static_cast<std::size_t>(core.n));
  for (int pe = 0; pe < core.n; ++pe) {
    devices.push_back(core.world->device_of(pe));
  }
  auto groups = build_cg_groups(core);
  cpufree::PersistentConfig pc;
  pc.threads_per_block = core.cfg.threads_per_block;
  pc.name = "cg_cpufree";
  pc.job_map = core.cfg.job_map;
  pc.job_label = core.cfg.job_label;
  co_await cpufree::persistent_launch_task(*impl_->machine, std::move(devices),
                                           std::move(groups), pc);
}

int CgCpufreeJob::iterations_run() const {
  return *impl_->core->iterations_run;
}

double CgCpufreeJob::final_rr() const { return *impl_->core->final_rr; }

const std::vector<double>& CgCpufreeJob::rr_history() const {
  return *impl_->core->history;
}

// --- Baseline CPU-controlled CG -------------------------------------------------

CgResult run_cg_baseline(const vgpu::MachineSpec& spec, const CgConfig& cfg) {
  vgpu::Machine machine(spec);
  machine.engine().set_observer(cfg.observer);
  vshmem::World world(machine);  // allocation convenience only
  world.set_functional(cfg.functional);
  hostmpi::Comm comm(machine);
  machine.trace().set_enabled(cfg.trace);
  const int n = machine.num_devices();
  auto states = make_states(cfg, n);

  const std::size_t vec_size =
      cfg.functional
          ? (*std::max_element(states.begin(), states.end(),
                               [](const RankState& a, const RankState& b) {
                                 return a.rows < b.rows;
                               })).rows *
                    cfg.nx +
                2 * cfg.nx
          : 1;
  vshmem::Sym<double> p = world.alloc<double>(vec_size, "p");
  vshmem::Sym<double> x = world.alloc<double>(vec_size, "x");
  vshmem::Sym<double> r = world.alloc<double>(vec_size, "r");
  vshmem::Sym<double> q = world.alloc<double>(vec_size, "q");
  vshmem::Sym<double> b = world.alloc<double>(vec_size, "b");
  if (cfg.functional) {
    for (int d = 0; d < n; ++d) {
      init_vectors(states[static_cast<std::size_t>(d)], b.on(d), r.on(d),
                   p.on(d));
    }
  }

  std::vector<double> rz0_partials;
  if (cfg.functional) {
    for (int d = 0; d < n; ++d) {
      rz0_partials.push_back(
          states[static_cast<std::size_t>(d)].dot(r.on(d), r.on(d)));
    }
  }
  const double rz0 = cfg.functional ? combine(rz0_partials) : 1.0;

  auto history = std::make_shared<std::vector<double>>();
  auto iterations_run = std::make_shared<int>(0);
  auto final_rr = std::make_shared<double>(0.0);

  std::vector<vgpu::Stream*> streams;
  for (int d = 0; d < n; ++d) streams.push_back(&machine.device(d).create_stream());

  // Per-rank reduction boxes shared across ranks (each rank's deliver writes
  // its own slot in everyone's box — the box is shared state standing in for
  // the n per-rank receive buffers).
  auto pq_box = std::make_shared<std::vector<double>>(static_cast<std::size_t>(n), 0.0);
  auto rr_box = std::make_shared<std::vector<double>>(static_cast<std::size_t>(n), 0.0);

  // Per-device loop state surviving across host_loop steps.
  std::vector<double> rz_state(static_cast<std::size_t>(n), rz0);
  std::vector<std::shared_ptr<double>> pq_partials, rr_partials;
  for (int d = 0; d < n; ++d) {
    pq_partials.push_back(std::make_shared<double>(0.0));
    rr_partials.push_back(std::make_shared<double>(0.0));
  }
  // The data-dependent termination test: a converged rank skips the
  // remaining steps of the host loop.
  std::vector<char> converged(static_cast<std::size_t>(n), 0);

  exec::host_loop(
      machine, cfg.max_iterations,
      [&](vgpu::HostCtx& h, int dev, int t) -> sim::Task {
        vgpu::Stream& stream = *streams[static_cast<std::size_t>(dev)];
        const RankState* st = &states[static_cast<std::size_t>(dev)];
        const double pts = st->points();
        const int blocks = std::max(
            1, static_cast<int>(pts / cfg.threads_per_block) + 1);
        vgpu::LaunchConfig lc;
        lc.threads_per_block = cfg.threads_per_block;
        lc.name = "cg_phase";
        auto pq_partial = pq_partials[static_cast<std::size_t>(dev)];
        auto rr_partial = rr_partials[static_cast<std::size_t>(dev)];
        vgpu::Stream* const step_streams[] = {&stream};

        // Checker-facing byte ranges of the p halo pushes.
        exec::HaloRangeFn p_ranges;
        if (machine.engine().observer() != nullptr) {
          p_ranges = [&states, &p, st,
                      dev](bool to_top) -> std::pair<sim::MemRange,
                                                     sim::MemRange> {
            if (to_top) {
              const RankState* up = &states[static_cast<std::size_t>(dev - 1)];
              return {sim::MemRange::of(p.on(dev), st->idx(1, 0), st->nx),
                      sim::MemRange::of(p.on(dev - 1), up->idx(up->rows + 1, 0),
                                        st->nx)};
            }
            const RankState* down = &states[static_cast<std::size_t>(dev + 1)];
            return {sim::MemRange::of(p.on(dev), st->idx(st->rows, 0), st->nx),
                    sim::MemRange::of(p.on(dev + 1), down->idx(0, 0), st->nx)};
          };
        }
        // Halo exchange of p via host-issued memcpys, then host barrier.
        CO_AWAIT(exec::staged_halo_exchange(
            h, stream, dev, n, static_cast<double>(st->nx) * 8.0,
            [&states, &p, st, dev,
             functional = cfg.functional](bool to_top) -> std::function<void()> {
              if (!functional) return {};
              if (to_top) {
                const RankState* up = &states[static_cast<std::size_t>(dev - 1)];
                return [&p, st, up, dev] {
                  auto dst = p.on(dev - 1);
                  auto src = p.on(dev);
                  for (std::size_t j = 0; j < st->nx; ++j) {
                    dst[up->idx(up->rows + 1, j)] = src[st->idx(1, j)];
                  }
                };
              }
              const RankState* down = &states[static_cast<std::size_t>(dev + 1)];
              return [&p, st, down, dev] {
                auto dst = p.on(dev + 1);
                auto src = p.on(dev);
                for (std::size_t j = 0; j < st->nx; ++j) {
                  dst[down->idx(0, j)] = src[st->idx(st->rows, j)];
                }
              };
            },
            p_ranges));
        co_await exec::end_host_step(h, exec::SyncPolicy::kHostBarrier,
                                     step_streams);

        // SpMV + dot(p, q); the host needs the scalar: stream sync after.
        std::function<void()> f1;
        if (cfg.functional) {
          f1 = [st, &p, &q, dev, pq_partial] {
            st->spmv(p.on(dev), q.on(dev));
            *pq_partial = st->dot(p.on(dev), q.on(dev));
          };
        }
        {
          auto body = [pts, f = std::move(f1), st, &p, dev,
                       n](vgpu::KernelCtx& k) -> sim::Task {
            if (k.engine().observer() != nullptr) {
              if (dev > 0) {
                k.obs_access(
                    sim::MemRange::of(p.on(dev), st->idx(0, 0), st->nx),
                    /*is_write=*/false, "p_halo_read");
              }
              if (dev + 1 < n) {
                k.obs_access(sim::MemRange::of(p.on(dev),
                                               st->idx(st->rows + 1, 0),
                                               st->nx),
                             /*is_write=*/false, "p_halo_read");
              }
            }
            std::function<void()> fn = f;
            co_await k.compute(pts * (kSpmvBytes + kDotBytes), 1.0, "spmv+dot",
                               std::move(fn));
          };
          std::function<sim::Task(vgpu::KernelCtx&)> body_fn = std::move(body);
          CO_AWAIT(h.launch_single(stream, lc, blocks, std::move(body_fn)));
        }
        CO_AWAIT(h.sync_stream(stream));
        co_await h.api("memcpy_dtoh_scalar");
        CO_AWAIT(exec::host_allreduce(comm, h, dev, n, /*tag=*/0, *pq_partial,
                                      pq_box, cfg.functional));
        const double pq = cfg.functional ? combine(*pq_box) : 1.0;
        const double alpha =
            cfg.functional ? rz_state[static_cast<std::size_t>(dev)] / pq : 0.0;

        // AXPY updates + dot(r, r); sync again for the scalar.
        std::function<void()> f2;
        if (cfg.functional) {
          f2 = [st, alpha, &p, &q, &x, &r, dev, rr_partial] {
            st->axpy2(alpha, p.on(dev), q.on(dev), x.on(dev), r.on(dev));
            *rr_partial = st->dot(r.on(dev), r.on(dev));
          };
        }
        {
          auto body = [pts, f = std::move(f2)](vgpu::KernelCtx& k) -> sim::Task {
            std::function<void()> fn = f;
            co_await k.compute(pts * (kAxpy2Bytes + kDotBytes), 1.0, "axpy+dot",
                               std::move(fn));
          };
          std::function<sim::Task(vgpu::KernelCtx&)> body_fn = std::move(body);
          CO_AWAIT(h.launch_single(stream, lc, blocks, std::move(body_fn)));
        }
        CO_AWAIT(h.sync_stream(stream));
        co_await h.api("memcpy_dtoh_scalar");
        CO_AWAIT(exec::host_allreduce(comm, h, dev, n, /*tag=*/1, *rr_partial,
                                      rr_box, cfg.functional));
        const double rr = cfg.functional ? combine(*rr_box) : 1.0;

        if (dev == 0) {
          if (cfg.functional) history->push_back(rr);
          *iterations_run = t;
          *final_rr = rr;
        }
        if (cfg.functional && rr < cfg.tolerance) {
          converged[static_cast<std::size_t>(dev)] = 1;
          co_return;
        }

        const double beta =
            cfg.functional ? rr / rz_state[static_cast<std::size_t>(dev)] : 0.0;
        if (cfg.functional) rz_state[static_cast<std::size_t>(dev)] = rr;
        std::function<void()> f3;
        if (cfg.functional) {
          f3 = [st, beta, &r, &p, dev] { st->p_update(beta, r.on(dev), p.on(dev)); };
        }
        {
          auto body = [pts, f = std::move(f3)](vgpu::KernelCtx& k) -> sim::Task {
            std::function<void()> fn = f;
            co_await k.compute(pts * kPUpdateBytes, 1.0, "p_update",
                               std::move(fn));
          };
          std::function<sim::Task(vgpu::KernelCtx&)> body_fn = std::move(body);
          CO_AWAIT(h.launch_single(stream, lc, blocks, std::move(body_fn)));
        }
        co_await exec::end_host_step(h, exec::SyncPolicy::kHostBarrier,
                                     step_streams);
      },
      [&converged](int dev) {
        return converged[static_cast<std::size_t>(dev)] != 0;
      });

  CgResult res;
  res.metrics = cpufree::analyze_run(machine.trace(), machine.engine().now(),
                                     *iterations_run);
  cpufree::apply_fault_stats(res.metrics, machine.faults().stats());
  res.iterations_run = *iterations_run;
  res.final_rr = *final_rr;
  res.rr_history = *history;
  return res;
}

}  // namespace solvers
