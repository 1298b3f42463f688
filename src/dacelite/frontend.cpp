#include "dacelite/frontend.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "dacelite/pass.hpp"
#include "dacelite/transforms.hpp"
#include "sim/intmath.hpp"

namespace dacelite {

std::pair<int, int> grid_dims(int ranks) {
  int px = static_cast<int>(std::sqrt(static_cast<double>(ranks)));
  while (px > 1 && ranks % px != 0) --px;
  return {px, ranks / px};  // px <= py
}

void to_cpu_free(Sdfg& sdfg) {
  Pipeline().apply(sdfg, Recipe::cpu_free_default());
}

// --- Jacobi 1D ----------------------------------------------------------------

namespace {

/// Offsets i in [0, count) whose global index first + i is an interior point
/// of an n-point axis: the range the Dirichlet ends leave to the update.
std::pair<std::size_t, std::size_t> interior(std::size_t first,
                                             std::size_t count, std::size_t n) {
  const std::size_t lo = first == 0 ? 1 : 0;
  const std::size_t end = first + 1 < n ? n - 1 - first : 0;
  return {lo, std::min(count, end)};
}

/// out[i] = ((g0 + i) * 37 + 11) % 101 / 101: the 1D initial condition.
void fill1d(std::span<double> out, std::size_t g0) {
  sim::fill_residues(out, (g0 * 37 + 11) % 101, 37, 101);
}

/// 3-point update of `count` points starting at global index `first_global`
/// (stored at local index `local_offset`), Dirichlet ends left unwritten.
/// Shared by the map body and the reference.
void jacobi1d_step(std::span<const double> src, std::span<double> dst,
                   std::size_t first_global, std::size_t count,
                   std::size_t global_n, std::size_t local_offset) {
  constexpr double kThird = 1.0 / 3.0;
  const auto [lo, hi] = interior(first_global, count, global_n);
  const double* a = src.data() + local_offset;
  double* b = dst.data() + local_offset;
  for (std::size_t i = lo; i < hi; ++i) {
    b[i] = kThird * (a[i - 1] + a[i] + a[i + 1]);
  }
}

}  // namespace

Jacobi1DProgram make_jacobi1d(std::size_t global_n, int ranks, int iterations) {
  if (global_n % static_cast<std::size_t>(ranks) != 0) {
    throw std::invalid_argument("jacobi1d: global_n must divide by ranks");
  }
  Jacobi1DProgram prog;
  prog.global_n = global_n;
  prog.ranks = ranks;
  prog.local_n = global_n / static_cast<std::size_t>(ranks);
  const std::size_t ln = prog.local_n;
  if (ln < 2) throw std::invalid_argument("jacobi1d: too few points per rank");

  Sdfg& s = prog.sdfg;
  s.name = "jacobi1d";
  s.default_iterations = iterations;

  auto fillA = [ln](int rank, std::span<double> local) {
    // Local layout: [0] left halo, [1..ln] interior, [ln+1] right halo;
    // element i holds global point rank * ln + i - 1 (rank 0's left halo,
    // global -1, stays zero).
    const std::size_t first = static_cast<std::size_t>(rank) * ln;
    if (first == 0) {
      fill1d(local.subspan(1), 0);
    } else {
      fill1d(local, first - 1);
    }
  };
  s.add_array(ArrayDesc{"A", ln + 2, Storage::kHost, fillA});
  s.add_array(ArrayDesc{"B", ln + 2, Storage::kHost, fillA});

  // State 1: halo exchange (Listing 5.1 — Isend pairs + Waitall).
  State& comm = s.add_body_state("exchange");
  // Tags/flags: 0 = leftward-moving message, 1 = rightward-moving.
  {
    LibraryNode send_left;
    send_left.kind = LibKind::kMpiIsend;
    send_left.array = "A";
    send_left.src = Subset{1, 1, 1};        // A[1]
    send_left.dst = Subset{ln + 1, 1, 1};   // left peer's right halo
    send_left.flag = 0;
    send_left.peer = [](int r, int) { return r - 1; };
    send_left.guard = [](int r, int) { return r > 0; };
    comm.add(send_left);

    LibraryNode send_right;
    send_right.kind = LibKind::kMpiIsend;
    send_right.array = "A";
    send_right.src = Subset{ln, 1, 1};  // A[ln]
    send_right.dst = Subset{0, 1, 1};   // right peer's left halo
    send_right.flag = 1;
    send_right.peer = [](int r, int) { return r + 1; };
    send_right.guard = [](int r, int n) { return r + 1 < n; };
    comm.add(send_right);

    LibraryNode recv_right;  // matches the right peer's send_left (tag 0)
    recv_right.kind = LibKind::kMpiIrecv;
    recv_right.array = "A";
    recv_right.flag = 0;
    recv_right.peer = [](int r, int) { return r + 1; };
    recv_right.guard = [](int r, int n) { return r + 1 < n; };
    comm.add(recv_right);

    LibraryNode recv_left;  // matches the left peer's send_right (tag 1)
    recv_left.kind = LibKind::kMpiIrecv;
    recv_left.array = "A";
    recv_left.flag = 1;
    recv_left.peer = [](int r, int) { return r - 1; };
    recv_left.guard = [](int r, int) { return r > 0; };
    comm.add(recv_left);

    LibraryNode waitall;
    waitall.kind = LibKind::kMpiWaitall;
    comm.add(waitall);
  }

  // State 2: B[1:-1] = (A[:-2] + A[1:-1] + A[2:]) / 3.
  State& compute = s.add_body_state("compute");
  {
    MapNode map;
    map.name = "stencil1d";
    map.points = static_cast<double>(ln);
    map.bytes_per_point = 16.0;
    map.reads = {"A"};
    map.writes = {"B"};
    const std::size_t gn = global_n;
    map.body = [ln, gn](ExecCtx& c) {
      jacobi1d_step(c.local("A"), c.local("B"),
                    static_cast<std::size_t>(c.rank) * ln, ln, gn, 1);
    };
    compute.add(std::move(map));
  }

  // State 3: copy-back A = B (DaCe's write-back of the temporary).
  State& copy = s.add_body_state("copy_back");
  {
    MapNode map;
    map.name = "copy1d";
    map.points = static_cast<double>(ln);
    map.bytes_per_point = 16.0;
    map.reads = {"B"};
    map.writes = {"A"};
    map.body = [ln](ExecCtx& c) {
      auto b = c.local("B");
      std::copy_n(b.begin() + 1, ln, c.local("A").begin() + 1);
    };
    copy.add(std::move(map));
  }

  s.validate();
  return prog;
}

std::vector<double> Jacobi1DProgram::gather(ProgramData& data) const {
  std::vector<double> out(global_n);
  for (int r = 0; r < ranks; ++r) {
    std::copy_n(data.local("A", r).begin() + 1, local_n,
                out.begin() + static_cast<std::ptrdiff_t>(
                                  static_cast<std::size_t>(r) * local_n));
  }
  return out;
}

std::vector<double> Jacobi1DProgram::reference(int iterations) const {
  std::vector<double> a(global_n);
  fill1d(a, 0);
  std::vector<double> b = a;
  for (int t = 1; t <= iterations; ++t) {
    jacobi1d_step(a, b, 0, global_n, global_n, 0);
    a.swap(b);  // the Dirichlet ends are equal in both buffers
  }
  return a;
}

// --- Jacobi 2D ----------------------------------------------------------------

namespace {

/// out[i] = ((row * 131 + (col0 + i) * 17) % 97) / 97 for one row of global
/// points: the 2D initial condition.
void fill2d_row(std::span<double> out, std::size_t row, std::size_t col0) {
  sim::fill_residues(out, (row * 131 + col0 * 17) % 97, 17, 97);
}

/// 5-point update of one row's points [lo, hi): `mid` is the row, `up` and
/// `down` its neighbours (same column indexing). Shared by the map body and
/// the reference.
void jacobi2d_row(const double* up, const double* mid, const double* down,
                  double* out, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    out[i] = 0.25 * (up[i] + down[i] + mid[i - 1] + mid[i + 1]);
  }
}

}  // namespace

Jacobi2DProgram make_jacobi2d(std::size_t gx, std::size_t gy, int ranks,
                              int iterations, int force_px) {
  Jacobi2DProgram prog;
  prog.gx = gx;
  prog.gy = gy;
  prog.ranks = ranks;
  if (force_px > 0 && ranks % force_px != 0) {
    throw std::invalid_argument("jacobi2d: force_px must divide ranks");
  }
  const int px = force_px > 0 ? force_px : grid_dims(ranks).first;
  const int py = ranks / px;
  prog.px = px;
  prog.py = py;
  if (gx % static_cast<std::size_t>(px) != 0 ||
      gy % static_cast<std::size_t>(py) != 0) {
    throw std::invalid_argument(
        "jacobi2d: domain must divide by the process grid");
  }
  prog.lnx = gx / static_cast<std::size_t>(px);
  prog.lny = gy / static_cast<std::size_t>(py);
  const std::size_t lnx = prog.lnx;
  const std::size_t lny = prog.lny;
  const std::size_t w = lnx + 2;  // padded row width

  Sdfg& s = prog.sdfg;
  s.name = "jacobi2d";
  s.default_iterations = iterations;

  auto fillA = [lnx, lny, w, px, gx, gy](int rank, std::span<double> local) {
    // Local row iy / column ix hold global point (row0 + iy - 1,
    // col0 + ix - 1); points outside the domain stay zero.
    const std::size_t row0 = static_cast<std::size_t>(rank / px) * lny;
    const std::size_t col0 = static_cast<std::size_t>(rank % px) * lnx;
    const std::size_t ix_lo = col0 == 0 ? 1 : 0;
    const std::size_t ix_hi = std::min(w, gx + 1 - col0);
    for (std::size_t iy = row0 == 0 ? 1 : 0; iy < lny + 2; ++iy) {
      const std::size_t row = row0 + iy - 1;
      if (row >= gy) break;
      fill2d_row(local.subspan(iy * w + ix_lo, ix_hi - ix_lo), row,
                 col0 + ix_lo - 1);
    }
  };
  const std::size_t local_size = (lny + 2) * w;
  s.add_array(ArrayDesc{"A", local_size, Storage::kHost, fillA});
  s.add_array(ArrayDesc{"B", local_size, Storage::kHost, fillA});

  // Rank-grid helpers (captured by value in the node lambdas).
  auto row_of = [px](int r) { return r / px; };
  auto col_of = [px](int r) { return r % px; };

  State& comm = s.add_body_state("exchange");
  // Flags: 0 north-moving, 1 south-moving, 2 west-moving, 3 east-moving.
  {
    LibraryNode n_send;  // my row 1 -> north peer's bottom halo row
    n_send.kind = LibKind::kMpiIsend;
    n_send.array = "A";
    n_send.src = Subset{1 * w + 1, lnx, 1};
    n_send.dst = Subset{(lny + 1) * w + 1, lnx, 1};
    n_send.flag = 0;
    n_send.peer = [px](int r, int) { return r - px; };
    n_send.guard = [row_of](int r, int) { return row_of(r) > 0; };
    comm.add(n_send);

    LibraryNode s_send;  // my row lny -> south peer's top halo row
    s_send.kind = LibKind::kMpiIsend;
    s_send.array = "A";
    s_send.src = Subset{lny * w + 1, lnx, 1};
    s_send.dst = Subset{0 * w + 1, lnx, 1};
    s_send.flag = 1;
    s_send.peer = [px](int r, int) { return r + px; };
    s_send.guard = [row_of, py](int r, int) { return row_of(r) + 1 < py; };
    comm.add(s_send);

    LibraryNode w_send;  // my column 1 -> west peer's east halo column
    w_send.kind = LibKind::kMpiIsend;
    w_send.array = "A";
    w_send.src = Subset{1 * w + 1, lny, static_cast<std::ptrdiff_t>(w)};
    w_send.dst =
        Subset{1 * w + lnx + 1, lny, static_cast<std::ptrdiff_t>(w)};
    w_send.flag = 2;
    w_send.peer = [](int r, int) { return r - 1; };
    w_send.guard = [col_of](int r, int) { return col_of(r) > 0; };
    comm.add(w_send);

    LibraryNode e_send;  // my column lnx -> east peer's west halo column
    e_send.kind = LibKind::kMpiIsend;
    e_send.array = "A";
    e_send.src = Subset{1 * w + lnx, lny, static_cast<std::ptrdiff_t>(w)};
    e_send.dst = Subset{1 * w + 0, lny, static_cast<std::ptrdiff_t>(w)};
    e_send.flag = 3;
    e_send.peer = [](int r, int) { return r + 1; };
    e_send.guard = [col_of, px](int r, int) { return col_of(r) + 1 < px; };
    comm.add(e_send);

    // Matching receives: from south (north-moving, 0), north (south-moving,
    // 1), east (west-moving, 2), west (east-moving, 3).
    LibraryNode recv_s;
    recv_s.kind = LibKind::kMpiIrecv;
    recv_s.array = "A";
    recv_s.flag = 0;
    recv_s.peer = [px](int r, int) { return r + px; };
    recv_s.guard = [row_of, py](int r, int) { return row_of(r) + 1 < py; };
    comm.add(recv_s);

    LibraryNode recv_n;
    recv_n.kind = LibKind::kMpiIrecv;
    recv_n.array = "A";
    recv_n.flag = 1;
    recv_n.peer = [px](int r, int) { return r - px; };
    recv_n.guard = [row_of](int r, int) { return row_of(r) > 0; };
    comm.add(recv_n);

    LibraryNode recv_e;
    recv_e.kind = LibKind::kMpiIrecv;
    recv_e.array = "A";
    recv_e.flag = 2;
    recv_e.peer = [](int r, int) { return r + 1; };
    recv_e.guard = [col_of, px](int r, int) { return col_of(r) + 1 < px; };
    comm.add(recv_e);

    LibraryNode recv_w;
    recv_w.kind = LibKind::kMpiIrecv;
    recv_w.array = "A";
    recv_w.flag = 3;
    recv_w.peer = [](int r, int) { return r - 1; };
    recv_w.guard = [col_of](int r, int) { return col_of(r) > 0; };
    comm.add(recv_w);

    LibraryNode waitall;
    waitall.kind = LibKind::kMpiWaitall;
    comm.add(waitall);
  }

  State& compute = s.add_body_state("compute");
  {
    MapNode map;
    map.name = "stencil2d";
    map.points = static_cast<double>(lnx * lny);
    map.bytes_per_point = 16.0;
    map.reads = {"A"};
    map.writes = {"B"};
    const std::size_t ggx = gx;
    const std::size_t ggy = gy;
    map.body = [lnx, lny, w, px, ggx, ggy](ExecCtx& c) {
      // The Dirichlet/rank-edge ranges, once per call: local row iy and
      // column ix are global (row0 + iy - 1, col0 + ix - 1).
      const std::size_t row0 = static_cast<std::size_t>(c.rank / px) * lny;
      const std::size_t col0 = static_cast<std::size_t>(c.rank % px) * lnx;
      const auto [y_lo, y_hi] = interior(row0, lny, ggy);
      const auto [x_lo, x_hi] = interior(col0, lnx, ggx);
      const double* a = c.local("A").data();
      double* b = c.local("B").data();
      for (std::size_t y = y_lo; y < y_hi; ++y) {
        const std::size_t i = (y + 1) * w + 1;
        jacobi2d_row(a + i - w, a + i, a + i + w, b + i, x_lo, x_hi);
      }
    };
    compute.add(std::move(map));
  }

  State& copy = s.add_body_state("copy_back");
  {
    MapNode map;
    map.name = "copy2d";
    map.points = static_cast<double>(lnx * lny);
    map.bytes_per_point = 16.0;
    map.reads = {"B"};
    map.writes = {"A"};
    map.body = [lnx, lny, w](ExecCtx& c) {
      const double* b = c.local("B").data();
      double* a = c.local("A").data();
      for (std::size_t iy = 1; iy <= lny; ++iy) {
        std::copy_n(b + iy * w + 1, lnx, a + iy * w + 1);
      }
    };
    copy.add(std::move(map));
  }

  s.validate();
  return prog;
}

std::vector<double> Jacobi2DProgram::gather(ProgramData& data) const {
  std::vector<double> out(gx * gy);
  const std::size_t w = lnx + 2;
  for (int r = 0; r < ranks; ++r) {
    const std::size_t row0 = static_cast<std::size_t>(r / px) * lny;
    const std::size_t col0 = static_cast<std::size_t>(r % px) * lnx;
    const double* a = data.local("A", r).data();
    for (std::size_t iy = 1; iy <= lny; ++iy) {
      std::copy_n(a + iy * w + 1, lnx, out.data() + (row0 + iy - 1) * gx + col0);
    }
  }
  return out;
}

std::vector<double> Jacobi2DProgram::reference(int iterations) const {
  std::vector<double> a(gx * gy);
  for (std::size_t row = 0; row < gy; ++row) {
    fill2d_row(std::span<double>(a).subspan(row * gx, gx), row, 0);
  }
  std::vector<double> b = a;
  const auto [y_lo, y_hi] = interior(0, gy, gy);
  const auto [x_lo, x_hi] = interior(0, gx, gx);
  for (int t = 1; t <= iterations; ++t) {
    for (std::size_t row = y_lo; row < y_hi; ++row) {
      const double* mid = a.data() + row * gx;
      jacobi2d_row(mid - gx, mid, mid + gx, b.data() + row * gx, x_lo, x_hi);
    }
    a.swap(b);  // the Dirichlet edges are equal in both buffers
  }
  return a;
}

}  // namespace dacelite
