#include "hostmpi/comm.hpp"

#include <utility>

namespace hostmpi {

Comm::Comm(vgpu::Machine& machine) : machine_(&machine) {
  // Single-node CUDA-aware MPI moves GPU buffers peer-to-peer.
  machine_->enable_all_peer_access();
}

void Comm::on_arrival(const Key& key,
                      std::shared_ptr<std::function<void()>> commit) {
  Mailbox& mb = mail_[key];
  if (!mb.recvs.empty()) {
    // A receive is posted: commit the payload and complete the receive.
    if (commit && *commit) (*commit)();
    mb.recvs.front()->set(1);
    mb.recvs.pop_front();
    return;
  }
  mb.arrivals.push_back(std::move(commit));
}

sim::Task Comm::transport(int src, int dst, int tag, double bytes,
                          Datatype type,
                          std::shared_ptr<sim::Flag> sent,
                          std::shared_ptr<std::function<void()>> deliver) {
  sim::Engine& eng = machine_->engine();
  const vgpu::DeviceSpec& dev = machine_->spec().device;
  const vgpu::LinkSpec& link = machine_->spec().link;
  const bool strided = !type.is_contiguous();
  const double pack_extra_bytes = strided ? bytes : 0.0;
  if (strided) {
    // Non-contiguous datatype: the CUDA-aware path falls back to staging
    // through host memory — the datatype engine issues one small copy per
    // block (each with driver overhead), moves the packed buffer down over
    // PCIe, and (after the wire) back up on the receiver. This is what makes
    // MPI_Type_vector exchanges so expensive in the DaCe baseline (§6.2.3).
    co_await eng.delay(static_cast<sim::Nanos>(type.block_count) *
                       link.vector_per_block_overhead);
    co_await eng.delay(dev.dram_time(2.0 * pack_extra_bytes));
    co_await machine_->staging_transfer(src, pack_extra_bytes,
                                        /*to_host=*/true, "mpi_stage_down");
  }
  // The functional copy is deferred to match time (MPI buffers the eager
  // payload internally); the wire charges only the movement cost here.
  co_await machine_->transfer(src, dst, bytes,
                              vgpu::TransferKind::kHostInitiated, src,
                              "mpi_payload");
  if (strided) {
    // Host-to-device staging plus unpack on the receiver.
    co_await machine_->staging_transfer(dst, pack_extra_bytes,
                                        /*to_host=*/false, "mpi_stage_up");
    co_await eng.delay(dev.dram_time(2.0 * pack_extra_bytes));
  }
  sent->set(1);
  on_arrival(Key{src, dst, tag}, std::move(deliver));
}

sim::Task Comm::isend(vgpu::HostCtx& host, int dst, int tag, std::size_t count,
                      Datatype type, std::function<void()> deliver,
                      Request& out) {
  co_await host.pay(host.costs().mpi_issue, "mpi_isend");
  auto sent = std::make_shared<sim::Flag>(machine_->engine(), 0);
  out = Request(sent);
  const double bytes = type.payload_bytes(count);
  auto shared_deliver =
      std::make_shared<std::function<void()>>(std::move(deliver));
  machine_->engine().spawn(transport(host.device_id(), dst, tag, bytes, type,
                                     std::move(sent),
                                     std::move(shared_deliver)));
}

sim::Task Comm::irecv(vgpu::HostCtx& host, int src, int tag, Request& out) {
  co_await host.pay(host.costs().mpi_issue, "mpi_irecv");
  const Key key{src, host.device_id(), tag};
  Mailbox& mb = mail_[key];
  if (!mb.arrivals.empty()) {
    // Message already arrived: match now — commit the buffered payload.
    auto commit = mb.arrivals.front();
    mb.arrivals.pop_front();
    if (commit && *commit) (*commit)();
    out = Request(std::make_shared<sim::Flag>(machine_->engine(), 1));
    co_return;
  }
  auto flag = std::make_shared<sim::Flag>(machine_->engine(), 0);
  mb.recvs.push_back(flag);
  out = Request(std::move(flag));
}

sim::Task Comm::wait(vgpu::HostCtx& host, Request req) {
  if (!req.valid()) {
    throw std::logic_error("MPI_Wait on an invalid request");
  }
  const sim::Nanos t0 = machine_->engine().now();
  co_await req.done_->wait_geq(1);
  co_await machine_->engine().delay(host.costs().mpi_wait);
  machine_->trace().record(sim::Cat::kHostApi, -1, host.device_id(), t0,
                           machine_->engine().now(), "mpi_wait");
}

sim::Task Comm::waitall(vgpu::HostCtx& host, std::vector<Request> reqs) {
  for (Request& r : reqs) {
    Request req = std::move(r);
    CO_AWAIT(wait(host, std::move(req)));
  }
}

sim::Task Comm::send(vgpu::HostCtx& host, int dst, int tag, std::size_t count,
                     Datatype type, std::function<void()> deliver) {
  Request req;
  CO_AWAIT(isend(host, dst, tag, count, type, std::move(deliver), req));
  CO_AWAIT(wait(host, std::move(req)));
}

sim::Task Comm::recv(vgpu::HostCtx& host, int src, int tag) {
  Request req;
  co_await irecv(host, src, tag, req);
  CO_AWAIT(wait(host, std::move(req)));
}

sim::Task Comm::barrier(vgpu::HostCtx& host) {
  static_cast<void>(host);
  co_await machine_->host_barrier();
}

sim::Task Comm::sendrecv(vgpu::HostCtx& host, int dst, int send_tag,
                         std::size_t send_count, Datatype type,
                         std::function<void()> deliver, int src, int recv_tag) {
  Request sreq;
  Request rreq;
  CO_AWAIT(isend(host, dst, send_tag, send_count, type, std::move(deliver), sreq));
  co_await irecv(host, src, recv_tag, rreq);
  CO_AWAIT(wait(host, std::move(sreq)));
  CO_AWAIT(wait(host, std::move(rreq)));
}

}  // namespace hostmpi
