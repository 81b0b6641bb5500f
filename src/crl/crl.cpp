#include "crl/crl.hpp"

#include <algorithm>
#include <cstring>
#include <ostream>

namespace crl {

namespace {
thread_local CrlProc* tls_proc = nullptr;

CrlProc& cproc_of(Proc& p) {
  auto* cp = static_cast<CrlProc*>(p.ctx(ace::am::kCtxCrl));
  ACE_CHECK_MSG(cp != nullptr, "CRL runtime not attached to this processor");
  return *cp;
}

std::uint64_t double_bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double bits_double(std::uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof v);
  return v;
}
}  // namespace

CrlRuntime::CrlRuntime(Machine& machine) : machine_(machine) {
  procs_.resize(machine.nprocs());
  h_op_ = machine_.register_handler(
      [](Proc& p, Message& m) { cproc_of(p).handle(m); }, "crl.op");
  h_bcast_ = machine_.register_handler([](Proc& p, Message& m) {
    CrlProc& cp = cproc_of(p);
    ACE_CHECK_MSG(!cp.coll_.flag, "overlapping CRL collectives");
    cp.coll_.buf = std::move(m.payload);
    cp.coll_.flag = true;
  }, "crl.bcast");
  h_gather_ = machine_.register_handler([](Proc& p, Message& m) {
    CrlProc& cp = cproc_of(p);
    cp.coll_.arrived += 1;
    if (m.args[1] == 0) {
      auto& ds = cp.coll_.dsum;
      if (ds.size() < p.nprocs()) ds.resize(p.nprocs(), 0.0);
      ds[m.src] = bits_double(m.args[0]);
    } else {
      cp.coll_.min = std::min(cp.coll_.min, m.args[0]);
    }
  }, "crl.gather");
}

void CrlRuntime::run(const std::function<void(CrlProc&)>& fn) {
  machine_.run([this, &fn](Proc& p) {
    auto& slot = procs_[p.id()];
    if (!slot) slot = std::make_unique<CrlProc>(*this, p);
    tls_proc = slot.get();
    fn(*slot);
    tls_proc = nullptr;
  });
}

CrlProc& CrlRuntime::cur() {
  ACE_CHECK_MSG(tls_proc != nullptr,
                "CRL API called outside CrlRuntime::run processor thread");
  return *tls_proc;
}

DsmStats CrlRuntime::aggregate_stats() const {
  DsmStats s;
  for (const DsmStats& d : machine_.gather([this](Proc& p) {
         const CrlProc* cp = procs_[p.id()].get();
         return cp != nullptr ? cp->stats_ : DsmStats{};
       }))
    s.merge(d);
  return s;
}

CrlProc::CrlProc(CrlRuntime& rt, Proc& proc)
    : rt_(rt), proc_(proc), mapper_(regions_) {
  proc_.set_ctx(ace::am::kCtxCrl, this);
  proc_.set_state_dumper(ace::am::kCtxCrl,
                         [this](std::ostream& os) { dump_state(os); });
}

CrlProc::~CrlProc() {
  proc_.set_state_dumper(ace::am::kCtxCrl, nullptr);
  proc_.set_ctx(ace::am::kCtxCrl, nullptr);
}

void CrlProc::dump_state(std::ostream& os) {
  os << "  crl runtime: " << regions_.count() << " regions\n";
  regions_.for_each([&](Region& r) {
    os << "    region " << std::hex << "0x" << r.id() << std::dec
       << (r.is_home() ? " home(self)" : "") << " home=" << r.home_proc()
       << " pstate=0x" << std::hex << r.pstate << std::dec
       << " maps=" << r.map_count << " rd=" << r.active_readers
       << " wr=" << r.active_writers << " op_done=" << r.op_done;
    Engine::dump(os, r);
    os << "\n";
  });
  os << "    collective: flag=" << coll_.flag << " arrived=" << coll_.arrived
     << " buf=" << coll_.buf.size() << "B\n";
}

void CrlProc::send(ProcId dst, Region& r, std::uint32_t op, std::uint64_t a,
                   ace::am::PayloadRef payload) {
  proc_.send(dst, rt_.h_op_, {r.id(), op, a}, std::move(payload));
}

void CrlProc::install(Region& r, const ace::am::PayloadRef& payload) {
  ACE_CHECK_MSG(r.meta_valid() && payload.size() == r.size(),
                "CRL data payload does not match region size");
  std::memcpy(r.data(), payload.data(), payload.size());
  r.version += 1;
}

ace::am::PayloadRef CrlProc::snapshot(Region& r) {
  return ace::am::PayloadRef::copy_of(r.data(), r.size());
}

// --- API --------------------------------------------------------------------

rid_t CrlProc::create(std::uint32_t size) {
  ACE_CHECK_MSG(size > 0, "rgn_create of zero bytes");
  const rid_t rid = ace::dsm::make_region_id(me(), next_seq_++);
  Region& r = regions_.create_home(rid, size, /*space=*/0);
  r.data();
  return rid;
}

void* CrlProc::map(rid_t rid) {
  proc_.poll();  // CRL polls at protocol entry points
  stats_.maps += 1;
  proc_.charge(proc_.machine().cost().map_slow_ns);
  Region* r = mapper_.map_lookup(rid);
  if (r == nullptr) {
    // Either a region this processor has never seen, or one whose mapping
    // node was evicted from the URC; re-register (CRL's miss path).
    r = regions_.find(rid);
    if (r == nullptr) {
      ACE_CHECK_MSG(ace::dsm::region_home(rid) != me(),
                    "rgn_map of an unknown home id");
      r = &regions_.create_remote(rid);
    }
    Region* again = mapper_.map_lookup(rid);  // registers the node
    ACE_CHECK(again == r);
  }
  if (!r->meta_valid()) {
    stats_.map_meta_misses += 1;
    r->op_done = false;
    send(ace::dsm::region_home(rid), *r, kMapReq, 0, {});
    proc_.charge_rtt();
    proc_.wait_until([r] { return r->op_done; });
  }
  void* p = r->data();
  r->map_count += 1;
  return p;
}

void CrlProc::unmap(void* mapped) {
  Region& r = *Region::from_data(mapped);
  ACE_CHECK_MSG(r.map_count > 0, "rgn_unmap without a matching rgn_map");
  proc_.charge(proc_.machine().cost().crl_op_ns);
  r.map_count -= 1;
  if (r.map_count == 0) mapper_.note_unmapped(r.id());
}

void CrlProc::start_read(void* mapped) {
  proc_.poll();
  Region& r = *Region::from_data(mapped);
  stats_.start_reads += 1;
  proc_.charge(proc_.machine().cost().crl_op_ns);
  engine_.start_read(r);
  r.active_readers += 1;
}

void CrlProc::end_read(void* mapped) {
  Region& r = *Region::from_data(mapped);
  ACE_CHECK_MSG(r.active_readers > 0, "rgn_end_read without start");
  proc_.charge(proc_.machine().cost().crl_op_ns);
  r.active_readers -= 1;
  engine_.end_access(r);
}

void CrlProc::start_write(void* mapped) {
  proc_.poll();
  Region& r = *Region::from_data(mapped);
  stats_.start_writes += 1;
  proc_.charge(proc_.machine().cost().crl_op_ns);
  engine_.start_write(r);
  r.active_writers += 1;
}

void CrlProc::end_write(void* mapped) {
  Region& r = *Region::from_data(mapped);
  ACE_CHECK_MSG(r.active_writers > 0, "rgn_end_write without start");
  proc_.charge(proc_.machine().cost().crl_op_ns);
  r.active_writers -= 1;
  engine_.end_access(r);
}

void CrlProc::barrier() { proc_.barrier(); }

// --- message handling ---------------------------------------------------------

void CrlProc::handle(Message& m) {
  const rid_t rid = m.args[0];
  Region* r = regions_.find(rid);
  if (r == nullptr) {
    ACE_CHECK_MSG(ace::dsm::region_home(rid) != me(),
                  "CRL message names an unknown home region");
    r = &regions_.create_remote(rid);
  }
  const auto op = static_cast<std::uint32_t>(m.args[1]);
  switch (op) {
    case kMapReq:
      ACE_CHECK(r->is_home());
      send(m.src, *r, kMapAck, r->size(), {});
      return;
    case kMapAck:
      r->set_meta(static_cast<std::uint32_t>(m.args[2]), 0);
      r->op_done = true;
      return;
    default:
      // No space dispatch: every other opcode is the directory engine's.
      engine_.on_message(*r, op, m.src, m.args[2], m.payload);
  }
}

// --- collectives ---------------------------------------------------------------

void CrlProc::bcast_bytes(void* data, std::uint32_t n, ProcId root) {
  if (me() == root) {
    // One pooled buffer, shared by every destination's message.
    const ace::am::PayloadRef payload = ace::am::PayloadRef::copy_of(data, n);
    for (ProcId p = 0; p < nprocs(); ++p)
      if (p != me()) proc_.send(p, rt_.h_bcast_, {}, payload);
  } else {
    proc_.wait_until([this] { return coll_.flag; });
    ACE_CHECK_MSG(coll_.buf.size() == n, "bcast size mismatch");
    std::memcpy(data, coll_.buf.data(), n);
    coll_.flag = false;
    coll_.buf.clear();
  }
  proc_.barrier();
}

rid_t CrlProc::bcast_region(rid_t id, ProcId root) {
  bcast_bytes(&id, sizeof id, root);
  return id;
}

double CrlProc::allreduce_sum(double v) {
  if (me() == 0) {
    auto& ds = coll_.dsum;
    if (ds.size() < nprocs()) ds.resize(nprocs(), 0.0);
    ds[0] = v;
    coll_.arrived += 1;
    proc_.wait_until([this] { return coll_.arrived == nprocs(); });
    // Rank-ordered fold, same determinism contract as the Ace runtime's.
    double sum = 0;
    for (ProcId r = 0; r < nprocs(); ++r) sum += coll_.dsum[r];
    v = sum;
    coll_.dsum.clear();
    coll_.arrived = 0;
  } else {
    proc_.send(0, rt_.h_gather_, {double_bits(v), 0});
  }
  bcast_bytes(&v, sizeof v, 0);
  return v;
}

std::uint64_t CrlProc::allreduce_min(std::uint64_t v) {
  if (me() == 0) {
    coll_.min = std::min(coll_.min, v);
    coll_.arrived += 1;
    proc_.wait_until([this] { return coll_.arrived == nprocs(); });
    v = coll_.min;
    coll_.min = UINT64_MAX;
    coll_.arrived = 0;
  } else {
    proc_.send(0, rt_.h_gather_, {v, 1});
  }
  bcast_bytes(&v, sizeof v, 0);
  return v;
}

// --- C-style API -----------------------------------------------------------------

rid_t rgn_create(std::uint32_t size) { return CrlRuntime::cur().create(size); }
void* rgn_map(rid_t rid) { return CrlRuntime::cur().map(rid); }
void rgn_unmap(void* mapped) { CrlRuntime::cur().unmap(mapped); }
void rgn_start_read(void* mapped) { CrlRuntime::cur().start_read(mapped); }
void rgn_end_read(void* mapped) { CrlRuntime::cur().end_read(mapped); }
void rgn_start_write(void* mapped) { CrlRuntime::cur().start_write(mapped); }
void rgn_end_write(void* mapped) { CrlRuntime::cur().end_write(mapped); }
void crl_barrier() { CrlRuntime::cur().barrier(); }

}  // namespace crl
