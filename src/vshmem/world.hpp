// GPU-initiated PGAS communication library (NVSHMEM-like).
//
// Provides the OpenSHMEM-style API family the paper builds on (§3.1.4,
// §4.1.1, §5.3): symmetric-heap allocation, contiguous puts with attached
// signals (nvshmemx_putmem_signal_nbi_block), strided element-wise puts
// (nvshmem_<type>_iput), single-element puts (nvshmem_<type>_p), remote
// signal updates (nvshmem_signal_op), point-to-point signal waits
// (nvshmem_signal_wait_until), memory-ordering (quiet/fence) and device-side
// collectives (barrier_all/sync_all).
//
// Semantics preserved from NVSHMEM:
//  * put_signal delivers the payload to the destination PE's memory *before*
//    the signal value becomes visible there;
//  * `_nbi` ops return to the issuing thread after the issue cost only;
//    completion is guaranteed by quiet();
//  * block-scoped (`_block`) variants reach full link bandwidth, thread-
//    scoped variants reach LinkSpec::thread_scoped_efficiency of it;
//  * symmetric objects exist at the same logical address on every PE.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "vgpu/kernel.hpp"
#include "vgpu/machine.hpp"

namespace vshmem {

/// How many threads cooperate on a data-movement call; decides the achieved
/// fraction of link bandwidth.
enum class Scope : std::uint8_t { kThread, kBlock };

/// Remote signal update operation (NVSHMEM_SIGNAL_SET / NVSHMEM_SIGNAL_ADD).
enum class SignalOp : std::uint8_t { kSet, kAdd };

/// A symmetric array: one allocation per PE at the same logical offset
/// (nvshmem_malloc). Index with the PE id to obtain that PE's instance.
template <typename T>
class Sym {
 public:
  Sym() = default;
  Sym(std::vector<vgpu::DeviceArray<T>> instances)
      : instances_(std::move(instances)) {}

  [[nodiscard]] std::span<T> on(int pe) {
    return instances_.at(static_cast<std::size_t>(pe)).span();
  }
  [[nodiscard]] std::span<const T> on(int pe) const {
    return instances_.at(static_cast<std::size_t>(pe)).span();
  }
  [[nodiscard]] std::size_t size() const {
    return instances_.empty() ? 0 : instances_.front().size();
  }
  [[nodiscard]] int n_pes() const { return static_cast<int>(instances_.size()); }
  [[nodiscard]] bool valid() const noexcept { return !instances_.empty(); }

 private:
  std::vector<vgpu::DeviceArray<T>> instances_;
};

/// Sender-side shadow of the latest update issued toward one signal flag:
/// the resilience protocols' recovery state. The sender records (before
/// issuing) the value it is about to signal and how to re-run the guarded
/// payload copy; a receiver whose watchdog expires consults the record to
/// decide whether the update was lost in flight (progress reached the waited
/// value) or merely not issued yet. Written only while the fault plane is
/// active; never touched when it is inert.
struct SignalShadow {
  std::int64_t progress = 0;  ///< highest value issued toward this flag
  std::int64_t landed = 0;    ///< max contiguous value whose update landed
  int src_pe = -1;            ///< issuing PE of the latest update
  double bytes = 0.0;         ///< payload bytes the signal guarded (0 = bare)
  /// Functional payload copies keyed by signal value, erased once `landed`
  /// covers them. Bounded: the iteration protocols run at most a couple of
  /// values ahead of their receiver (see IterationProtocol::note_issue).
  std::map<std::int64_t, std::function<void()>> pending;

  /// Destination side: the update carrying `value` was applied. Values are
  /// issued consecutively and wires are FIFO, so a value that skips the
  /// watermark is a gap from a dropped update; the watermark then stalls
  /// until a resilient waiter re-pulls the missing values.
  void note_landed(std::int64_t value) {
    if (value == landed + 1) ++landed;
  }
};

/// A symmetric array of signal variables (uint64 semantics), waitable on the
/// owning PE.
class SignalSet {
 public:
  SignalSet(sim::Engine& engine, int n_pes, std::size_t count) {
    flags_.resize(static_cast<std::size_t>(n_pes));
    for (auto& per_pe : flags_) {
      for (std::size_t i = 0; i < count; ++i) per_pe.emplace_back(engine, 0);
    }
    shadows_.resize(static_cast<std::size_t>(n_pes),
                    std::vector<SignalShadow>(count));
  }
  SignalSet(const SignalSet&) = delete;
  SignalSet& operator=(const SignalSet&) = delete;

  [[nodiscard]] sim::Flag& at(int pe, std::size_t idx) {
    return flags_.at(static_cast<std::size_t>(pe)).at(idx);
  }
  /// Recovery record for the flag at (pe, idx); see SignalShadow.
  [[nodiscard]] SignalShadow& shadow(int pe, std::size_t idx) {
    return shadows_.at(static_cast<std::size_t>(pe)).at(idx);
  }
  [[nodiscard]] std::size_t count() const {
    return flags_.empty() ? 0 : flags_.front().size();
  }

 private:
  std::vector<std::deque<sim::Flag>> flags_;
  std::vector<std::vector<SignalShadow>> shadows_;
};

/// The PGAS world: one PE per device (nvshmem_init on an 8-GPU node gives
/// PEs 0..7). Owns the symmetric heap and the nbi-completion bookkeeping.
///
/// A World may also span a *slice* of the machine (the multi-tenant serve
/// path): PEs 0..k-1 map onto an arbitrary device subset, so every workload
/// written against PE indices runs unchanged on a carved-out slice. The
/// default whole-machine World is the identity mapping and behaves (and
/// costs) byte-identically to the pre-slice code.
class World {
 public:
  explicit World(vgpu::Machine& machine);
  /// Slice world: PE i lives on physical device `devices[i]`. `label`
  /// prefixes symmetric-heap / signal names (e.g. "j42.") so concurrent
  /// tenants' allocations stay distinguishable in checker reports.
  World(vgpu::Machine& machine, std::vector<int> devices, std::string label);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] vgpu::Machine& machine() noexcept { return *machine_; }
  [[nodiscard]] int n_pes() const noexcept { return n_pes_; }

  /// Physical device hosting PE `pe` (identity on a whole-machine world).
  [[nodiscard]] int device_of(int pe) const {
    return devices_.at(static_cast<std::size_t>(pe));
  }
  /// PE index of physical device `device`; -1 if outside this world's slice.
  [[nodiscard]] int pe_of(int device) const {
    return pe_of_.at(static_cast<std::size_t>(device));
  }
  [[nodiscard]] const std::string& label() const noexcept { return label_; }

  /// Per-world fault-injection gate (default on). A multi-tenant server
  /// scopes put/signal-class injections to the faulty tenant's world by
  /// switching every other tenant off; machine-wide window faults
  /// (link/stall) are not affected by this gate.
  void set_fault_injection(bool on) noexcept { inject_faults_ = on; }
  [[nodiscard]] bool fault_injection() const noexcept { return inject_faults_; }

  /// Job-level fail-stop verdict. Set once a watchdog (or the launch path)
  /// concludes a hard fault took out part of this world's slice; every slab
  /// group checks it at its iteration top and skip-joins to the end, so the
  /// surviving kernels drain cooperatively instead of wedging on a dead
  /// peer. Idempotent — the first caller's reason wins and is published to
  /// the engine incident log, which names the evicted tenant in hang
  /// reports.
  void hard_stop(std::string reason);
  [[nodiscard]] bool hard_stopped() const noexcept { return hard_stopped_; }
  [[nodiscard]] const std::string& hard_stop_reason() const noexcept {
    return hard_stop_reason_;
  }

  /// Timing-only switch: when false, data-movement ops charge full costs and
  /// apply signals, but skip the functional payload copies (so benchmark
  /// sweeps need not allocate or touch full-size domains). Default true.
  void set_functional(bool on) noexcept { functional_ = on; }
  [[nodiscard]] bool functional() const noexcept { return functional_; }

  /// nvshmem_malloc: allocates `count` elements of T on every PE.
  template <typename T>
  [[nodiscard]] Sym<T> alloc(std::size_t count, std::string_view name) {
    std::vector<vgpu::DeviceArray<T>> inst;
    inst.reserve(static_cast<std::size_t>(n_pes_));
    for (int pe = 0; pe < n_pes_; ++pe) {
      inst.push_back(machine_->alloc_array<T>(
          device_of(pe), count,
          label_ + std::string(name) + "@pe" + std::to_string(pe)));
    }
    return Sym<T>(std::move(inst));
  }

  /// Allocates `count` symmetric signal variables. `name` labels them for
  /// checker diagnostics ("<name><idx>@pe<pe>").
  [[nodiscard]] std::unique_ptr<SignalSet> alloc_signals(
      std::size_t count, std::string_view name = "sig") {
    auto s = std::make_unique<SignalSet>(machine_->engine(), n_pes_, count);
    sim::Observer* const o = machine_->engine().observer();
    for (int pe = 0; pe < n_pes_; ++pe) {
      for (std::size_t i = 0; i < count; ++i) {
        std::string nm = label_ + std::string(name) + std::to_string(i) +
                         "@pe" + std::to_string(pe);
        // Registered unconditionally with the engine so an end-of-run hang
        // report can name the flag even without an attached checker.
        machine_->engine().name_flag(&s->at(pe, i), nm);
        if (o != nullptr) o->on_flag_name(&s->at(pe, i), nm);
      }
    }
    return s;
  }

  /// Transfers ownership of a SignalSet to the world, returning the raw
  /// pointer. For protocols whose final put_signal is fired and forgotten
  /// (e.g. the slab halo handshake signalling iteration t+1 after its last
  /// step): the delivery callback of an in-flight nbi put may run after the
  /// issuing task's frame is gone, so the flags must live as long as the
  /// world — not as long as the coroutine that allocated them.
  SignalSet* retain_signals(std::unique_ptr<SignalSet> s) {
    retained_signals_.push_back(std::move(s));
    return retained_signals_.back().get();
  }

  // --- Contiguous data movement -------------------------------------------

  /// Blocking putmem: copies `count` elements from `src_pe`'s instance of
  /// `arr` (starting at src_off) into `dst_pe`'s instance (at dst_off).
  template <typename T>
  sim::Task putmem(vgpu::KernelCtx& ctx, Sym<T>& arr, std::size_t src_off,
                   std::size_t dst_off, std::size_t count, int dst_pe,
                   Scope scope = Scope::kBlock);

  /// Non-blocking putmem: returns after the issue cost; completion is
  /// guaranteed only after quiet().
  template <typename T>
  sim::Task putmem_nbi(vgpu::KernelCtx& ctx, Sym<T>& arr, std::size_t src_off,
                       std::size_t dst_off, std::size_t count, int dst_pe,
                       Scope scope = Scope::kBlock);

  /// nvshmemx_putmem_signal_nbi(_block): non-blocking put that updates
  /// `sig[sig_idx]` at the destination PE *after* the payload is delivered.
  template <typename T>
  sim::Task putmem_signal_nbi(vgpu::KernelCtx& ctx, Sym<T>& arr,
                              std::size_t src_off, std::size_t dst_off,
                              std::size_t count, SignalSet& sig,
                              std::size_t sig_idx, std::int64_t sig_val,
                              SignalOp op, int dst_pe,
                              Scope scope = Scope::kBlock);

  // --- Strided / single-element -------------------------------------------

  /// nvshmem_<type>_iput: element-wise strided put (no combined signal
  /// variant exists in NVSHMEM; pair with signal_op + quiet, §5.3.1).
  template <typename T>
  sim::Task iput(vgpu::KernelCtx& ctx, Sym<T>& arr, std::size_t src_off,
                 std::ptrdiff_t src_stride, std::size_t dst_off,
                 std::ptrdiff_t dst_stride, std::size_t count, int dst_pe);

  /// nvshmem_<type>_p: single-element put.
  template <typename T>
  sim::Task p(vgpu::KernelCtx& ctx, Sym<T>& arr, std::size_t dst_off, T value,
              int dst_pe);

  /// nvshmem_getmem: blocking contiguous GET from `src_pe`'s instance into
  /// the caller's instance. Gets are round trips: request + payload return.
  template <typename T>
  sim::Task getmem(vgpu::KernelCtx& ctx, Sym<T>& arr, std::size_t src_off,
                   std::size_t dst_off, std::size_t count, int src_pe,
                   Scope scope = Scope::kBlock);

  /// nvshmem_<type>_iget: strided element-wise GET.
  template <typename T>
  sim::Task iget(vgpu::KernelCtx& ctx, Sym<T>& arr, std::size_t src_off,
                 std::ptrdiff_t src_stride, std::size_t dst_off,
                 std::ptrdiff_t dst_stride, std::size_t count, int src_pe);

  /// nvshmem_<type>_g: single-element GET; returns the fetched value via
  /// `out` (0 in timing-only mode).
  template <typename T>
  sim::Task g(vgpu::KernelCtx& ctx, Sym<T>& arr, std::size_t src_off,
              int src_pe, T& out);

  // --- Signaling ------------------------------------------------------------

  /// nvshmem_signal_op: remote update of a signal variable (no payload).
  sim::Task signal_op(vgpu::KernelCtx& ctx, SignalSet& sig, std::size_t sig_idx,
                      std::int64_t value, SignalOp op, int dst_pe);

  /// nvshmem_signal_wait_until on the calling PE's own signal.
  sim::Task signal_wait_until(vgpu::KernelCtx& ctx, SignalSet& sig,
                              std::size_t sig_idx, sim::Cmp cmp,
                              std::int64_t value);

  // --- Ordering and collectives ---------------------------------------------

  /// nvshmem_quiet: waits until every nbi op issued by this PE completed.
  sim::Task quiet(vgpu::KernelCtx& ctx);

  /// nvshmem_fence: ordering between puts to the same PE. Our interconnect
  /// delivers same-link transfers in order, so fence costs only issue time.
  sim::Task fence(vgpu::KernelCtx& ctx);

  /// nvshmem_barrier_all: device-side barrier across all PEs (implies quiet).
  sim::Task barrier_all(vgpu::KernelCtx& ctx);

  /// nvshmem_sync_all: barrier without completion guarantee for nbi ops.
  sim::Task sync_all(vgpu::KernelCtx& ctx);

  /// Outstanding (issued but incomplete) nbi ops for a PE; for tests.
  [[nodiscard]] std::int64_t outstanding_nbi(int pe) const;

 private:
  struct PeState {
    std::int64_t issued = 0;
    std::unique_ptr<sim::Flag> completed;  // counts finished nbi ops
  };

  /// Issue-time fault decisions for one put (all false when the machine's
  /// fault plane is inert).
  struct PutFaults {
    bool drop = false;
    bool duplicate = false;
    bool lose_signal = false;
    sim::Nanos delay_signal = 0;
  };
  /// Rolls the put-family fault sites for one op on the (src, dst) stream
  /// and publishes Observer::on_fault for each injection.
  PutFaults roll_put_faults(vgpu::KernelCtx& ctx, int src_pe, int dst_pe,
                            bool with_signal, std::string_view label);

  /// The wire movement common to all put flavours; completes at delivery.
  sim::Task do_put(int src_pe, int dst_pe, double bytes, double bw_fraction,
                   int lane, std::string_view label, std::function<void()> deliver,
                   sim::Cat cat = sim::Cat::kComm, sim::TransferObs obs = {});

  /// Runs `t` detached and bumps the PE's completion counter when done.
  static sim::Task run_nbi(sim::Task t, sim::Flag& completed);

  void apply_signal(SignalSet& sig, std::size_t idx, std::int64_t value,
                    SignalOp op, int dst_pe, int src_pe);

  [[nodiscard]] double scope_fraction(Scope s) const {
    return s == Scope::kBlock ? 1.0
                              : machine_->spec().link.thread_scoped_efficiency;
  }

  vgpu::Machine* machine_;
  int n_pes_;
  bool functional_ = true;
  bool inject_faults_ = true;
  bool hard_stopped_ = false;
  std::string hard_stop_reason_;
  std::vector<int> devices_;  // PE index -> physical device
  std::vector<int> pe_of_;    // physical device -> PE index (-1 outside)
  std::string label_;
  std::vector<PeState> pe_;
  std::unique_ptr<sim::Barrier> barrier_;  // lazily created for sync_all
  std::vector<std::unique_ptr<SignalSet>> retained_signals_;
};

// ---- template implementations ----------------------------------------------

namespace detail {

/// Conservative byte hull over a strided element index set (checker ranges).
template <typename T>
[[nodiscard]] inline sim::MemRange strided_range(std::span<T> s,
                                                 std::size_t off,
                                                 std::ptrdiff_t stride,
                                                 std::size_t count) {
  if (count == 0) return {};
  const auto o = static_cast<std::ptrdiff_t>(off);
  const std::ptrdiff_t last =
      o + static_cast<std::ptrdiff_t>(count - 1) * stride;
  const std::ptrdiff_t lo = std::min(o, last);
  const std::ptrdiff_t hi = std::max(o, last) + 1;
  sim::MemRange r = sim::MemRange::of(s, static_cast<std::size_t>(lo),
                                      static_cast<std::size_t>(hi - lo));
  // Publish the element layout: the detector checks strided ranges
  // element-accurately (interleaved columns must not alias each other).
  const std::size_t abs_stride =
      static_cast<std::size_t>(stride < 0 ? -stride : stride);
  r.stride = abs_stride * sizeof(T);
  r.elem = sizeof(T);
  r.count = count;
  return r;
}

}  // namespace detail

template <typename T>
sim::Task World::putmem(vgpu::KernelCtx& ctx, Sym<T>& arr, std::size_t src_off,
                        std::size_t dst_off, std::size_t count, int dst_pe,
                        Scope scope) {
  const int src_pe = pe_of(ctx.device_id());
  World* self = this;
  std::function<void()> deliver = [self, &arr, src_pe, dst_pe, src_off, dst_off,
                                   count]() {
    if (!self->functional_) return;
    auto src = arr.on(src_pe).subspan(src_off, count);
    auto dst = arr.on(dst_pe).subspan(dst_off, count);
    std::copy(src.begin(), src.end(), dst.begin());
  };
  sim::TransferObs obs;
  if (machine_->engine().observer() != nullptr) {
    obs.actor = ctx.obs_actor();
    obs.read = sim::MemRange::of(arr.on(src_pe), src_off, count);
    obs.write = sim::MemRange::of(arr.on(dst_pe), dst_off, count);
    // NVSHMEM blocking puts guarantee source reuse, not remote visibility:
    // the issuer still learns of delivery only via quiet/fence or a signal.
    obs.rejoin = false;
  }
  co_await do_put(src_pe, dst_pe, static_cast<double>(count * sizeof(T)),
                  scope_fraction(scope), ctx.lane(), "putmem",
                  std::move(deliver), sim::Cat::kComm, obs);
}

template <typename T>
sim::Task World::putmem_nbi(vgpu::KernelCtx& ctx, Sym<T>& arr,
                            std::size_t src_off, std::size_t dst_off,
                            std::size_t count, int dst_pe, Scope scope) {
  const int src_pe = pe_of(ctx.device_id());
  World* self = this;
  std::function<void()> deliver = [self, &arr, src_pe, dst_pe, src_off, dst_off,
                                   count]() {
    if (!self->functional_) return;
    auto src = arr.on(src_pe).subspan(src_off, count);
    auto dst = arr.on(dst_pe).subspan(dst_off, count);
    std::copy(src.begin(), src.end(), dst.begin());
  };
  sim::TransferObs obs;
  if (machine_->engine().observer() != nullptr) {
    obs.actor = ctx.obs_actor();
    obs.read = sim::MemRange::of(arr.on(src_pe), src_off, count);
    obs.write = sim::MemRange::of(arr.on(dst_pe), dst_off, count);
    obs.rejoin = false;  // nbi: completion only via quiet()
  }
  // Fault plane: a dropped put's payload never lands (the wire still runs,
  // so quiet() completes); a duplicated put lands twice.
  const PutFaults pf = roll_put_faults(ctx, src_pe, dst_pe,
                                       /*with_signal=*/false, "putmem_nbi");
  if (pf.drop) {
    deliver = [] {};
  } else if (pf.duplicate) {
    deliver = [once = std::move(deliver)] {
      if (once) {
        once();
        once();
      }
    };
  }
  PeState& st = pe_.at(static_cast<std::size_t>(src_pe));
  ++st.issued;
  sim::Task move = do_put(src_pe, dst_pe, static_cast<double>(count * sizeof(T)),
                          scope_fraction(scope), ctx.lane(), "putmem_nbi",
                          std::move(deliver), sim::Cat::kComm, obs);
  machine_->engine().spawn(run_nbi(std::move(move), *st.completed));
  // The issuing thread only pays the descriptor cost.
  co_await machine_->engine().delay(machine_->spec().link.device_put_issue);
}

template <typename T>
sim::Task World::putmem_signal_nbi(vgpu::KernelCtx& ctx, Sym<T>& arr,
                                   std::size_t src_off, std::size_t dst_off,
                                   std::size_t count, SignalSet& sig,
                                   std::size_t sig_idx, std::int64_t sig_val,
                                   SignalOp op, int dst_pe, Scope scope) {
  const int src_pe = pe_of(ctx.device_id());
  World* self = this;
  SignalSet* sigp = &sig;
  // Fault plane, decided at issue (counter-based, per ordered PE pair): a
  // dropped put loses payload AND signal (the signal is payload-ordered); a
  // duplicated put lands its payload twice; the signal alone can be lost or
  // postponed. The wire transfer always runs, so quiet() still completes —
  // loss is visible only through the missing signal/payload, exactly the
  // failure the resilience protocols must detect.
  const PutFaults pf = roll_put_faults(ctx, src_pe, dst_pe,
                                       /*with_signal=*/true,
                                       "putmem_signal_nbi");
  std::function<void()> deliver = [self, &arr, src_pe, dst_pe, src_off, dst_off,
                                   count, sigp, sig_idx, sig_val, op, pf]() {
    if (pf.drop) return;
    if (self->functional_) {
      auto src = arr.on(src_pe).subspan(src_off, count);
      auto dst = arr.on(dst_pe).subspan(dst_off, count);
      std::copy(src.begin(), src.end(), dst.begin());
      if (pf.duplicate) std::copy(src.begin(), src.end(), dst.begin());
    }
    // The payload is down even if the signal is about to be lost/postponed:
    // advance the shadow watermark here so a resilient waiter only re-pulls
    // updates whose DATA is actually missing. Shadows exist for the
    // signal-coupled classes only; window/hard masks never consult them, so
    // those runs skip the write.
    if (self->machine_->faults().signal_coupled()) {
      sigp->shadow(dst_pe, sig_idx).note_landed(sig_val);
    }
    if (pf.lose_signal) return;
    if (pf.delay_signal > 0) {
      self->machine_->engine().schedule_callback(
          [self, sigp, sig_idx, sig_val, op, dst_pe, src_pe] {
            self->apply_signal(*sigp, sig_idx, sig_val, op, dst_pe, src_pe);
          },
          pf.delay_signal);
      return;
    }
    // Signal becomes visible only after the payload landed.
    self->apply_signal(*sigp, sig_idx, sig_val, op, dst_pe, src_pe);
  };
  sim::TransferObs obs;
  if (machine_->engine().observer() != nullptr) {
    obs.actor = ctx.obs_actor();
    obs.read = sim::MemRange::of(arr.on(src_pe), src_off, count);
    obs.write = sim::MemRange::of(arr.on(dst_pe), dst_off, count);
    obs.rejoin = false;  // nbi: completion only via quiet() or the signal
  }
  PeState& st = pe_.at(static_cast<std::size_t>(src_pe));
  ++st.issued;
  sim::Task move = do_put(src_pe, dst_pe, static_cast<double>(count * sizeof(T)),
                          scope_fraction(scope), ctx.lane(), "putmem_signal_nbi",
                          std::move(deliver), sim::Cat::kComm, obs);
  machine_->engine().spawn(run_nbi(std::move(move), *st.completed));
  co_await machine_->engine().delay(machine_->spec().link.device_put_issue);
}

template <typename T>
sim::Task World::iput(vgpu::KernelCtx& ctx, Sym<T>& arr, std::size_t src_off,
                      std::ptrdiff_t src_stride, std::size_t dst_off,
                      std::ptrdiff_t dst_stride, std::size_t count, int dst_pe) {
  const int src_pe = pe_of(ctx.device_id());
  World* self = this;
  std::function<void()> deliver = [self, &arr, src_pe, dst_pe, src_off, dst_off,
                                   src_stride, dst_stride, count]() {
    if (!self->functional_) return;
    auto src = arr.on(src_pe);
    auto dst = arr.on(dst_pe);
    for (std::size_t i = 0; i < count; ++i) {
      const auto si = static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(src_off) +
          static_cast<std::ptrdiff_t>(i) * src_stride);
      const auto di = static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(dst_off) +
          static_cast<std::ptrdiff_t>(i) * dst_stride);
      dst[di] = src[si];
    }
  };
  sim::TransferObs obs;
  if (machine_->engine().observer() != nullptr) {
    obs.actor = ctx.obs_actor();
    obs.read = detail::strided_range(arr.on(src_pe), src_off, src_stride, count);
    obs.write = detail::strided_range(arr.on(dst_pe), dst_off, dst_stride, count);
    // iput has no completion signal: remote visibility needs quiet() —
    // forgetting it is exactly the §5.3.1 bug class the checker targets.
    obs.rejoin = false;
  }
  // Element-wise remote stores: strided efficiency of the link, thread scope.
  const double frac = machine_->spec().link.strided_efficiency;
  co_await do_put(src_pe, dst_pe, static_cast<double>(count * sizeof(T)), frac,
                  ctx.lane(), "iput", std::move(deliver), sim::Cat::kComm, obs);
}

template <typename T>
sim::Task World::p(vgpu::KernelCtx& ctx, Sym<T>& arr, std::size_t dst_off,
                   T value, int dst_pe) {
  const int src_pe = pe_of(ctx.device_id());
  World* self = this;
  std::function<void()> deliver = [self, &arr, dst_pe, dst_off, value]() {
    if (!self->functional_) return;
    arr.on(dst_pe)[dst_off] = value;
  };
  sim::TransferObs obs;
  if (machine_->engine().observer() != nullptr) {
    obs.actor = ctx.obs_actor();
    obs.write = sim::MemRange::of(arr.on(dst_pe), dst_off, 1);
    obs.rejoin = false;  // like iput: pair with signal_op + quiet
  }
  const sim::Nanos extra = machine_->spec().link.small_op_overhead;
  co_await machine_->engine().delay(extra);
  co_await do_put(src_pe, dst_pe, static_cast<double>(sizeof(T)), 1.0,
                  ctx.lane(), "p", std::move(deliver), sim::Cat::kComm, obs);
}

template <typename T>
sim::Task World::getmem(vgpu::KernelCtx& ctx, Sym<T>& arr, std::size_t src_off,
                        std::size_t dst_off, std::size_t count, int src_pe,
                        Scope scope) {
  const int me = pe_of(ctx.device_id());
  // Request leg: a small message to the source PE...
  co_await do_put(me, src_pe, 8.0, 1.0, ctx.lane(), "get_request", {},
                  sim::Cat::kSync);
  // ...then the payload travels back.
  World* self = this;
  std::function<void()> deliver = [self, &arr, me, src_pe, src_off, dst_off,
                                   count]() {
    if (!self->functional()) return;
    auto src = arr.on(src_pe).subspan(src_off, count);
    auto dst = arr.on(me).subspan(dst_off, count);
    std::copy(src.begin(), src.end(), dst.begin());
  };
  sim::TransferObs obs;
  if (machine_->engine().observer() != nullptr) {
    obs.actor = ctx.obs_actor();
    obs.read = sim::MemRange::of(arr.on(src_pe), src_off, count);
    obs.write = sim::MemRange::of(arr.on(me), dst_off, count);
    obs.rejoin = true;  // blocking get: the caller observes the data arrive
  }
  co_await do_put(src_pe, me, static_cast<double>(count * sizeof(T)),
                  scope_fraction(scope), ctx.lane(), "getmem",
                  std::move(deliver), sim::Cat::kComm, obs);
}

template <typename T>
sim::Task World::iget(vgpu::KernelCtx& ctx, Sym<T>& arr, std::size_t src_off,
                      std::ptrdiff_t src_stride, std::size_t dst_off,
                      std::ptrdiff_t dst_stride, std::size_t count, int src_pe) {
  const int me = pe_of(ctx.device_id());
  co_await do_put(me, src_pe, 8.0, 1.0, ctx.lane(), "get_request", {},
                  sim::Cat::kSync);
  World* self = this;
  std::function<void()> deliver = [self, &arr, me, src_pe, src_off, dst_off,
                                   src_stride, dst_stride, count]() {
    if (!self->functional()) return;
    auto src = arr.on(src_pe);
    auto dst = arr.on(me);
    for (std::size_t i = 0; i < count; ++i) {
      const auto si = static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(src_off) +
          static_cast<std::ptrdiff_t>(i) * src_stride);
      const auto di = static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(dst_off) +
          static_cast<std::ptrdiff_t>(i) * dst_stride);
      dst[di] = src[si];
    }
  };
  sim::TransferObs obs;
  if (machine_->engine().observer() != nullptr) {
    obs.actor = ctx.obs_actor();
    obs.read = detail::strided_range(arr.on(src_pe), src_off, src_stride, count);
    obs.write = detail::strided_range(arr.on(me), dst_off, dst_stride, count);
    obs.rejoin = true;
  }
  const double frac = machine_->spec().link.strided_efficiency;
  co_await do_put(src_pe, me, static_cast<double>(count * sizeof(T)), frac,
                  ctx.lane(), "iget", std::move(deliver), sim::Cat::kComm, obs);
}

template <typename T>
sim::Task World::g(vgpu::KernelCtx& ctx, Sym<T>& arr, std::size_t src_off,
                   int src_pe, T& out) {
  const int me = pe_of(ctx.device_id());
  const sim::Nanos extra = machine_->spec().link.small_op_overhead;
  co_await machine_->engine().delay(extra);
  co_await do_put(me, src_pe, 8.0, 1.0, ctx.lane(), "get_request", {},
                  sim::Cat::kSync);
  World* self = this;
  T* outp = &out;
  std::function<void()> deliver = [self, &arr, src_pe, src_off, outp]() {
    *outp = self->functional() ? arr.on(src_pe)[src_off] : T{};
  };
  sim::TransferObs obs;
  if (machine_->engine().observer() != nullptr) {
    obs.actor = ctx.obs_actor();
    obs.read = sim::MemRange::of(arr.on(src_pe), src_off, 1);
    obs.rejoin = true;  // the fetched value lands in a local variable
  }
  co_await do_put(src_pe, me, static_cast<double>(sizeof(T)), 1.0, ctx.lane(),
                  "g", std::move(deliver), sim::Cat::kComm, obs);
}

}  // namespace vshmem
