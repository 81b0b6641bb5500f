#include "ace/runtime.hpp"

#include <cstring>
#include <ostream>

namespace ace {

namespace {
thread_local RuntimeProc* tls_rproc = nullptr;

RuntimeProc& rproc_of(am::Proc& p) {
  auto* rp = static_cast<RuntimeProc*>(p.ctx(am::kCtxAce));
  ACE_CHECK_MSG(rp != nullptr, "Ace runtime not attached to this processor");
  return *rp;
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

// ---------------------------------------------------------------------------
// Runtime (machine-wide)
// ---------------------------------------------------------------------------

Runtime::Runtime(am::Machine& machine, Registry registry)
    : machine_(machine), registry_(std::move(registry)) {
  rprocs_.resize(machine.nprocs());

  h_map_req_ = machine_.register_handler(
      [](am::Proc& p, am::Message& m) { rproc_of(p).handle_map_req(m); },
      "ace.map_req");

  h_map_ack_ = machine_.register_handler([](am::Proc& p, am::Message& m) {
    RuntimeProc& rp = rproc_of(p);
    Region* r = rp.find_region(m.args[0]);
    ACE_CHECK_MSG(r != nullptr, "MAP_ACK for unknown region");
    r->set_meta(static_cast<std::uint32_t>(m.args[1]),
                static_cast<std::uint32_t>(m.args[2]));
    r->op_done = true;
  }, "ace.map_ack");

  h_lock_req_ = machine_.register_handler(
      [](am::Proc& p, am::Message& m) { rproc_of(p).handle_lock_req(m); },
      "ace.lock_req");

  h_lock_grant_ = machine_.register_handler([](am::Proc& p, am::Message& m) {
    RuntimeProc& rp = rproc_of(p);
    Region& r = rp.find_or_create_remote(m.args[0]);
    r.op_done = true;
  }, "ace.lock_grant");

  h_unlock_ = machine_.register_handler(
      [](am::Proc& p, am::Message& m) { rproc_of(p).handle_unlock(m); },
      "ace.unlock");

  h_proto_ = machine_.register_handler([](am::Proc& p, am::Message& m) {
    RuntimeProc& rp = rproc_of(p);
    Region& r = rp.find_or_create_remote(m.args[0]);
    Space& sp = rp.space(static_cast<SpaceId>(m.args[2]));
    sp.thunks().on_message(sp.protocol(), r,
                           static_cast<std::uint32_t>(m.args[1]), m);
  }, "ace.proto");

  h_bcast_ = machine_.register_handler([](am::Proc& p, am::Message& m) {
    RuntimeProc& rp = rproc_of(p);
    ACE_CHECK_MSG(!rp.coll_.flag, "overlapping collectives");
    rp.coll_.buf = std::move(m.payload);
    rp.coll_.flag = true;
  }, "ace.bcast");

  h_gather_ = machine_.register_handler([](am::Proc& p, am::Message& m) {
    RuntimeProc& rp = rproc_of(p);
    rp.coll_.arrived += 1;
    if (m.args[1] == 0) {
      // Park the contribution under its source rank; allreduce_sum at proc
      // 0 folds the slots in rank order once everyone arrived.
      auto& ds = rp.coll_.dsum;
      if (ds.size() < p.nprocs()) ds.resize(p.nprocs(), 0.0);
      ds[m.src] = bits_double(m.args[0]);
    } else {
      rp.coll_.min = std::min(rp.coll_.min, m.args[0]);
    }
  }, "ace.gather");

  h_reduce_u64_ = machine_.register_handler([](am::Proc& p, am::Message& m) {
    RuntimeProc& rp = rproc_of(p);
    const std::size_t n = m.payload.size() / sizeof(std::uint64_t);
    auto& acc = rp.coll_.vec;
    if (acc.size() < n) acc.resize(n, 0);
    std::uint64_t v;
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(&v, m.payload.data() + i * sizeof v, sizeof v);
      if (m.args[0] == 0)
        acc[i] += v;
      else
        acc[i] = std::max(acc[i], v);
    }
    rp.coll_.arrived += 1;
  }, "ace.reduce_u64");
}

void Runtime::run(const std::function<void(RuntimeProc&)>& fn) {
  machine_.run([this, &fn](am::Proc& p) {
    auto& slot = rprocs_[p.id()];
    if (!slot) slot = std::make_unique<RuntimeProc>(*this, p);
    tls_rproc = slot.get();
    fn(*slot);
    tls_rproc = nullptr;
  });
}

RuntimeProc& Runtime::cur() {
  ACE_CHECK_MSG(tls_rproc != nullptr,
                "Ace API called outside Runtime::run processor thread");
  return *tls_rproc;
}

namespace {

// Flat serialization for the cross-rank metric gather.
// Layout: u32 count, then per segment u32 space | u32 proto_len |
// proto bytes | DsmStats | u64 msgs | u64 bytes.  Host byte order: every
// rank is a fork of the same binary.
void put_raw(std::vector<std::byte>& b, const void* p, std::size_t n) {
  const std::size_t off = b.size();
  b.resize(off + n);
  if (n != 0) std::memcpy(b.data() + off, p, n);
}

void get_raw(const std::vector<std::byte>& b, std::size_t& off, void* p,
             std::size_t n) {
  ACE_CHECK_MSG(off + n <= b.size(), "truncated metrics gather blob");
  std::memcpy(p, b.data() + off, n);
  off += n;
}

std::vector<std::byte> encode_segs(const std::vector<obs::SpaceMetrics>& segs) {
  std::vector<std::byte> b;
  const auto count = static_cast<std::uint32_t>(segs.size());
  put_raw(b, &count, sizeof count);
  for (const auto& s : segs) {
    put_raw(b, &s.space, sizeof s.space);
    const auto len = static_cast<std::uint32_t>(s.protocol.size());
    put_raw(b, &len, sizeof len);
    put_raw(b, s.protocol.data(), len);
    put_raw(b, &s.dsm, sizeof s.dsm);
    put_raw(b, &s.msgs, sizeof s.msgs);
    put_raw(b, &s.bytes, sizeof s.bytes);
  }
  return b;
}

void decode_segs_into(const std::vector<std::byte>& b,
                      std::vector<obs::SpaceMetrics>& out) {
  std::size_t off = 0;
  std::uint32_t count = 0;
  get_raw(b, off, &count, sizeof count);
  for (std::uint32_t i = 0; i < count; ++i) {
    obs::SpaceMetrics s;
    get_raw(b, off, &s.space, sizeof s.space);
    std::uint32_t len = 0;
    get_raw(b, off, &len, sizeof len);
    s.protocol.resize(len);
    get_raw(b, off, s.protocol.data(), len);
    get_raw(b, off, &s.dsm, sizeof s.dsm);
    get_raw(b, off, &s.msgs, sizeof s.msgs);
    get_raw(b, off, &s.bytes, sizeof s.bytes);
    out.push_back(std::move(s));
  }
}

}  // namespace

DsmStats Runtime::aggregate_dstats() const {
  DsmStats s;
  for (const DsmStats& d : machine_.gather([this](am::Proc& p) {
         const RuntimeProc* rp = rprocs_[p.id()].get();
         return rp != nullptr ? rp->dstats_total() : DsmStats{};
       }))
    s.merge(d);
  return s;
}

std::vector<obs::SpaceMetrics> Runtime::aggregate_space_metrics() const {
  // Rank order reproduces the (proc-major, segment-minor) order that
  // merge_by_key expects on either backend.
  std::vector<obs::SpaceMetrics> all;
  for (const auto& b : machine_.gather_bytes([this](am::Proc& p) {
         const RuntimeProc* rp = rprocs_[p.id()].get();
         return encode_segs(rp != nullptr ? rp->segs_
                                          : std::vector<obs::SpaceMetrics>{});
       }))
    if (!b.empty()) decode_segs_into(b, all);
  return obs::merge_by_key(all);
}

void Runtime::reset_metrics() {
  for (auto& rp : rprocs_)
    if (rp) rp->reset_metrics();
}

// ---------------------------------------------------------------------------
// RuntimeProc
// ---------------------------------------------------------------------------

RuntimeProc::RuntimeProc(Runtime& rt, am::Proc& proc)
    : rt_(rt), proc_(proc), mapper_(regions_) {
  proc_.set_ctx(am::kCtxAce, this);
  proc_.set_state_dumper(am::kCtxAce,
                         [this](std::ostream& os) { dump_state(os); });
  // The default space with the default sequentially consistent protocol.
  open_segment(kDefaultSpace, proto_names::kSC);
  spaces_.push_back(std::make_unique<Space>(
      kDefaultSpace, proto_names::kSC,
      rt_.registry().create(proto_names::kSC, *this, kDefaultSpace)));
  spaces_.back()->protocol().init(*spaces_.back());
}

RuntimeProc::~RuntimeProc() {
  proc_.set_state_dumper(am::kCtxAce, nullptr);
  proc_.set_ctx(am::kCtxAce, nullptr);
}

void RuntimeProc::dump_state(std::ostream& os) {
  os << "  ace runtime: " << spaces_.size() << " spaces, " << regions_.count()
     << " regions\n";
  for (const auto& sp : spaces_)
    if (sp)
      os << "    space " << sp->id() << ": protocol "
         << sp->protocol_name() << "\n";
  regions_.for_each([&](Region& r) {
    os << "    region " << std::hex << "0x" << r.id() << std::dec
       << (r.is_home() ? " home(self)" : "") << " home=" << r.home_proc();
    if (r.meta_valid())
      os << " space=" << r.space() << " size=" << r.size();
    else
      os << " space=? size=?";
    os << " pstate=0x" << std::hex << r.pstate << std::dec
       << " maps=" << r.map_count << " rd=" << r.active_readers
       << " wr=" << r.active_writers << " ver=" << r.version
       << " op_done=" << r.op_done;
    if (r.lock) {
      os << " lock{held=" << r.lock->held;
      if (r.lock->holder != dsm::kNoProc) os << " holder=" << r.lock->holder;
      os << " waiters=" << r.lock->waiters.size() << "}";
    }
    os << "\n";
  });
  os << "    collective: flag=" << coll_.flag << " arrived=" << coll_.arrived
     << " buf=" << coll_.buf.size() << "B\n";
}

ProcId RuntimeProc::me() const { return proc_.id(); }
std::uint32_t RuntimeProc::nprocs() const { return proc_.nprocs(); }
const am::CostModel& RuntimeProc::cost() const {
  return proc_.machine().cost();
}

Space& RuntimeProc::space(SpaceId s) {
  ACE_CHECK_MSG(s < spaces_.size(), "unknown space id");
  return *spaces_[s];
}

obs::SpaceMetrics& RuntimeProc::smetrics(SpaceId s) {
  ACE_CHECK_MSG(s < cur_seg_.size(), "unknown space id");
  return segs_[cur_seg_[s]];
}

void RuntimeProc::open_segment(SpaceId s, const std::string& protocol) {
  if (cur_seg_.size() <= s) cur_seg_.resize(s + 1, 0);
  cur_seg_[s] = static_cast<std::uint32_t>(segs_.size());
  segs_.push_back({s, protocol, {}, 0, 0});
}

DsmStats RuntimeProc::dstats_total() const {
  DsmStats t;
  for (const obs::SpaceMetrics& seg : segs_) t.merge(seg.dsm);
  return t;
}

void RuntimeProc::reset_metrics() {
  for (obs::SpaceMetrics& seg : segs_) {
    seg.dsm = DsmStats{};
    seg.msgs = 0;
    seg.bytes = 0;
  }
}

Protocol& RuntimeProc::protocol_of(Region& r) {
  return space(r.space()).protocol();
}

SpaceObserver* RuntimeProc::attach_observer(SpaceId s,
                                            std::unique_ptr<SpaceObserver> o) {
  space(s);  // validates the space id
  if (observers_.size() <= s) observers_.resize(s + 1);
  observers_[s] = std::move(o);
  return observers_[s].get();
}

SpaceId RuntimeProc::new_space(const std::string& protocol) {
  // Collective by construction: every processor executes the same sequence
  // of Ace_NewSpace calls (SPMD), so ids agree machine-wide.
  const auto id = static_cast<SpaceId>(spaces_.size());
  open_segment(id, protocol);
  spaces_.push_back(std::make_unique<Space>(
      id, protocol, rt_.registry().create(protocol, *this, id)));
  spaces_.back()->protocol().init(*spaces_.back());
  return id;
}

void RuntimeProc::change_protocol(SpaceId s, const std::string& protocol) {
  Space& sp = space(s);
  const std::uint64_t t0 = proc_.vclock_ns();
  // Quiesce: every processor reaches the change point before anyone flushes.
  proc_.barrier();
  sp.protocol().flush(sp);
  // One-hop flush lemma: any message sent before a processor enters the
  // machine barrier is handled by its destination before that destination
  // leaves the barrier (FIFO mailboxes + centralized release), so after this
  // barrier all flush traffic has been applied at the homes.
  proc_.barrier();
  regions_.for_each_in_space(s, [&](Region& r) {
    ACE_CHECK_MSG(r.active_readers == 0 && r.active_writers == 0,
                  "ChangeProtocol with accesses in progress");
    ACE_CHECK_MSG(!r.lock || !r.lock->held, "ChangeProtocol with a held lock");
    r.reset_protocol_state();
  });
  // Flush traffic above was charged to the outgoing protocol's segment; the
  // incoming protocol gets a fresh one.
  open_segment(s, protocol);
  sp.set_protocol(protocol, rt_.registry().create(protocol, *this, s));
  sp.protocol().init(sp);
  proc_.barrier();
  proc_.trace(obs::EventKind::kChangeProtocol, t0, s);
  if (SpaceObserver* o = observer(s)) o->on_protocol_change(s, protocol);
}

RegionId RuntimeProc::gmalloc(SpaceId s, std::uint32_t size) {
  ACE_CHECK_MSG(size > 0, "Ace_GMalloc of zero bytes");
  space(s);  // validates the space id
  dstats(s).gmallocs += 1;
  const RegionId id = dsm::make_region_id(me(), next_seq_++);
  Region& r = regions_.create_home(id, size, s);
  r.data();  // allocate the master copy eagerly: handlers serve it unmapped
  protocol_of(r).region_created(r);
  return id;
}

void* RuntimeProc::map(RegionId id) {
  proc_.poll();  // CRL's discipline: service requests at protocol entry
  const std::uint64_t t0 = proc_.vclock_ns();
  proc_.charge(cost().map_fast_ns);
  Region* r = mapper_.lookup(id);
  if (r == nullptr) {
    ACE_CHECK_MSG(dsm::region_home(id) != me(), "mapping an unknown home id");
    r = &regions_.create_remote(id);
    mapper_.remember(id, r);
  }
  if (!r->meta_valid()) {
    blocking_request(*r, [&] {
      proc_.send(dsm::region_home(id), rt_.h_map_req_, {id});
    });
    // The region's space is known only now that metadata arrived; attribute
    // the miss and its request message retroactively.
    dstats(r->space()).map_meta_misses += 1;
    note_space_msg(r->space(), 0);
  }
  dstats(r->space()).maps += 1;
  void* p = r->data();
  r->map_count += 1;
  protocol_of(*r).mapped(*r);
  proc_.trace(obs::EventKind::kMap, t0, r->space(), id);
  return p;
}

void RuntimeProc::unmap(void* mapped) {
  Region& r = region_of(mapped);
  ACE_CHECK_MSG(r.map_count > 0, "ACE_UNMAP without a matching ACE_MAP");
  const std::uint64_t t0 = proc_.vclock_ns();
  dstats(r.space()).unmaps += 1;
  proc_.charge(cost().op_hit_ns);
  r.map_count -= 1;
  protocol_of(r).unmapped(r);
  proc_.trace(obs::EventKind::kUnmap, t0, r.space(), r.id());
}

// The annotation dispatch paths resolve the space's cached thunk table
// (Space::thunks — one predicted indirect call, or none for a null hook)
// instead of walking space→protocol→virtual hook.  The modeled dispatch
// charge is per-annotation and applies either way, so modeled time and
// DsmStats are bit-identical with and without a resolved thunk.

void RuntimeProc::start_read(void* mapped) {
  proc_.poll();
  Region& r = region_of(mapped);
  Space& sp = space(r.space());
  const std::uint64_t t0 = proc_.vclock_ns();
  dstats(r.space()).start_reads += 1;
  proc_.charge(cost().dispatch_ns + cost().op_hit_ns);
  if (const auto fn = sp.thunks().start_read) fn(sp.protocol(), r);
  r.active_readers += 1;
  proc_.trace(obs::EventKind::kStartRead, t0, r.space(), r.id());
  if (SpaceObserver* o = observer(r.space())) o->on_read(r);
}

void RuntimeProc::end_read(void* mapped) {
  Region& r = region_of(mapped);
  ACE_CHECK_MSG(r.active_readers > 0, "ACE_END_READ without start");
  Space& sp = space(r.space());
  const std::uint64_t t0 = proc_.vclock_ns();
  proc_.charge(cost().dispatch_ns + cost().op_hit_ns);
  r.active_readers -= 1;
  if (const auto fn = sp.thunks().end_read) fn(sp.protocol(), r);
  proc_.trace(obs::EventKind::kEndRead, t0, r.space(), r.id());
}

void RuntimeProc::start_write(void* mapped) {
  proc_.poll();
  Region& r = region_of(mapped);
  Space& sp = space(r.space());
  const std::uint64_t t0 = proc_.vclock_ns();
  dstats(r.space()).start_writes += 1;
  proc_.charge(cost().dispatch_ns + cost().op_hit_ns);
  if (const auto fn = sp.thunks().start_write) fn(sp.protocol(), r);
  r.active_writers += 1;
  proc_.trace(obs::EventKind::kStartWrite, t0, r.space(), r.id());
  if (SpaceObserver* o = observer(r.space())) o->on_write(r);
}

void RuntimeProc::end_write(void* mapped) {
  Region& r = region_of(mapped);
  // A read-opened episode may be closed by END_WRITE when the compiler's
  // read/write merging applied (ProtocolInfo::merge_rw, §4.2 footnote 1).
  ACE_CHECK_MSG(r.active_writers > 0 || r.active_readers > 0,
                "ACE_END_WRITE without start");
  Space& sp = space(r.space());
  const std::uint64_t t0 = proc_.vclock_ns();
  proc_.charge(cost().dispatch_ns + cost().op_hit_ns);
  if (r.active_writers > 0)
    r.active_writers -= 1;
  else
    r.active_readers -= 1;
  if (const auto fn = sp.thunks().end_write) fn(sp.protocol(), r);
  proc_.trace(obs::EventKind::kEndWrite, t0, r.space(), r.id());
}

// The direct entries skip the dispatch and the poll, not the bookkeeping;
// they keep the nesting count for the episodes DirectNesting names.

void RuntimeProc::start_read_direct(Region& r, Protocol& proto) {
  const std::uint64_t t0 = proc_.vclock_ns();
  dstats(r.space()).start_reads += 1;
  proc_.charge(cost().direct_call_ns + cost().op_hit_ns);
  proto.start_read(r);
  if (space(r.space()).nesting().reads) r.active_readers += 1;
  proc_.trace(obs::EventKind::kStartRead, t0, r.space(), r.id());
  if (SpaceObserver* o = observer(r.space())) o->on_read(r);
}

void RuntimeProc::end_read_direct(Region& r, Protocol& proto) {
  const bool counted = space(r.space()).nesting().reads;
  ACE_CHECK_MSG(!counted || r.active_readers > 0,
                "direct END_READ without start");
  const std::uint64_t t0 = proc_.vclock_ns();
  proc_.charge(cost().direct_call_ns + cost().op_hit_ns);
  if (counted) r.active_readers -= 1;
  proto.end_read(r);
  proc_.trace(obs::EventKind::kEndRead, t0, r.space(), r.id());
}

void RuntimeProc::start_write_direct(Region& r, Protocol& proto) {
  const std::uint64_t t0 = proc_.vclock_ns();
  dstats(r.space()).start_writes += 1;
  proc_.charge(cost().direct_call_ns + cost().op_hit_ns);
  proto.start_write(r);
  if (space(r.space()).nesting().writes) r.active_writers += 1;
  proc_.trace(obs::EventKind::kStartWrite, t0, r.space(), r.id());
  if (SpaceObserver* o = observer(r.space())) o->on_write(r);
}

void RuntimeProc::end_write_direct(Region& r, Protocol& proto) {
  const bool counted = space(r.space()).nesting().writes;
  // As in end_write, a read episode escalated by merge_rw closes here.
  ACE_CHECK_MSG(!counted || r.active_writers > 0 || r.active_readers > 0,
                "direct END_WRITE without start");
  const std::uint64_t t0 = proc_.vclock_ns();
  proc_.charge(cost().direct_call_ns + cost().op_hit_ns);
  if (counted) {
    if (r.active_writers > 0)
      r.active_writers -= 1;
    else
      r.active_readers -= 1;
  }
  proto.end_write(r);
  proc_.trace(obs::EventKind::kEndWrite, t0, r.space(), r.id());
}

void RuntimeProc::ace_barrier(SpaceId s) {
  const std::uint64_t t0 = proc_.vclock_ns();
  dstats(s).barriers += 1;
  proc_.charge(cost().dispatch_ns);
  space(s).protocol().barrier();
  proc_.trace(obs::EventKind::kAceBarrier, t0, s);
  // After the protocol barrier every processor is at this epoch boundary, so
  // the observer may run collective work (the advisor's decision point).
  if (SpaceObserver* o = observer(s)) o->on_barrier(s);
}

void RuntimeProc::ace_acquire(SpaceId s) {
  const std::uint64_t t0 = proc_.vclock_ns();
  dstats(s).acquires += 1;
  proc_.charge(cost().dispatch_ns);
  space(s).protocol().acquire();
  proc_.trace(obs::EventKind::kAceAcquire, t0, s);
}

void RuntimeProc::ace_release(SpaceId s) {
  const std::uint64_t t0 = proc_.vclock_ns();
  dstats(s).releases += 1;
  proc_.charge(cost().dispatch_ns);
  space(s).protocol().release();
  proc_.trace(obs::EventKind::kAceRelease, t0, s);
}

void RuntimeProc::ace_lock(void* mapped) {
  Region& r = region_of(mapped);
  const std::uint64_t t0 = proc_.vclock_ns();
  dstats(r.space()).locks += 1;
  proc_.charge(cost().dispatch_ns);
  protocol_of(r).lock(r);
  proc_.trace(obs::EventKind::kLock, t0, r.space(), r.id());
}

void RuntimeProc::ace_unlock(void* mapped) {
  Region& r = region_of(mapped);
  const std::uint64_t t0 = proc_.vclock_ns();
  dstats(r.space()).unlocks += 1;
  proc_.charge(cost().dispatch_ns);
  protocol_of(r).unlock(r);
  proc_.trace(obs::EventKind::kUnlock, t0, r.space(), r.id());
}

// --- system default lock (home-side queue) --------------------------------

void RuntimeProc::lock_grant_local(Region& r, ProcId requester) {
  dsm::LockState& ls = r.lock_state();
  if (!ls.held) {
    ls.held = true;
    ls.holder = requester;
    if (requester == me()) {
      r.op_done = true;
    } else {
      note_space_msg(r.space(), 0);
      proc_.send(requester, rt_.h_lock_grant_, {r.id()});
    }
  } else {
    ls.waiters.push_back(requester);
  }
}

void RuntimeProc::lock_release_local(Region& r, ProcId from) {
  dsm::LockState& ls = r.lock_state();
  ACE_CHECK_MSG(ls.held && ls.holder == from, "unlock by non-holder");
  if (ls.waiters.empty()) {
    ls.held = false;
    ls.holder = dsm::kNoProc;
  } else {
    const ProcId next = ls.waiters.front();
    ls.waiters.pop_front();
    ls.holder = next;
    if (next == me()) {
      r.op_done = true;
    } else {
      note_space_msg(r.space(), 0);
      proc_.send(next, rt_.h_lock_grant_, {r.id()});
    }
  }
}

void RuntimeProc::sys_lock(Region& r) {
  if (r.is_home()) {
    r.op_done = false;
    lock_grant_local(r, me());
    proc_.wait_until([&r] { return r.op_done; });
  } else {
    blocking_request(r, [&] {
      note_space_msg(r.space(), 0);
      proc_.send(r.home_proc(), rt_.h_lock_req_, {r.id()});
    });
  }
}

void RuntimeProc::sys_unlock(Region& r) {
  if (r.is_home()) {
    lock_release_local(r, me());
  } else {
    note_space_msg(r.space(), 0);
    proc_.send(r.home_proc(), rt_.h_unlock_, {r.id()});
  }
}

void RuntimeProc::handle_map_req(am::Message& m) {
  Region* r = find_region(m.args[0]);
  ACE_CHECK_MSG(r != nullptr && r->is_home(), "MAP_REQ for unknown region");
  note_space_msg(r->space(), 0);
  proc_.send(m.src, rt_.h_map_ack_, {r->id(), r->size(), r->space()});
}

void RuntimeProc::handle_lock_req(am::Message& m) {
  Region* r = find_region(m.args[0]);
  ACE_CHECK_MSG(r != nullptr && r->is_home(), "LOCK_REQ for unknown region");
  lock_grant_local(*r, m.src);
}

void RuntimeProc::handle_unlock(am::Message& m) {
  Region* r = find_region(m.args[0]);
  ACE_CHECK_MSG(r != nullptr && r->is_home(), "UNLOCK for unknown region");
  lock_release_local(*r, m.src);
}

// --- protocol services ------------------------------------------------------

void RuntimeProc::send_proto(ProcId dst, RegionId region, std::uint32_t op,
                             std::uint64_t a, std::uint64_t b,
                             am::PayloadRef payload) {
  Region* r = find_region(region);
  ACE_CHECK_MSG(r != nullptr && r->meta_valid(),
                "send_proto on a region without local metadata");
  note_space_msg(r->space(), payload.size());
  proc_.send(dst, rt_.h_proto_, {region, op, r->space(), a, b},
             std::move(payload));
}

Region& RuntimeProc::find_or_create_remote(RegionId id) {
  Region* r = regions_.find(id);
  if (r == nullptr) {
    ACE_CHECK_MSG(dsm::region_home(id) != me(),
                  "message names a home region this processor never created");
    r = &regions_.create_remote(id);
  }
  return *r;
}

void RuntimeProc::install_data(Region& r, const am::PayloadRef& payload) {
  ACE_CHECK_MSG(r.meta_valid() && payload.size() == r.size(),
                "data payload does not match region size");
  std::memcpy(r.data(), payload.data(), payload.size());
  r.version += 1;
}

am::PayloadRef RuntimeProc::snapshot(Region& r) {
  return am::PayloadRef::copy_of(r.data(), r.size());
}

// --- collectives -------------------------------------------------------------

void RuntimeProc::bcast_bytes(void* data, std::uint32_t n, ProcId root) {
  if (me() == root) {
    // One pooled buffer, shared by every destination's message.
    const am::PayloadRef payload = am::PayloadRef::copy_of(data, n);
    for (ProcId p = 0; p < nprocs(); ++p)
      if (p != me()) proc_.send(p, rt_.h_bcast_, {}, payload);
  } else {
    proc_.wait_until([this] { return coll_.flag; });
    ACE_CHECK_MSG(coll_.buf.size() == n, "bcast size mismatch");
    std::memcpy(data, coll_.buf.data(), n);
    coll_.flag = false;
    coll_.buf.clear();
  }
  proc_.barrier();  // separate successive collectives
}

RegionId RuntimeProc::bcast_region(RegionId id, ProcId root) {
  bcast_bytes(&id, sizeof id, root);
  return id;
}

double RuntimeProc::allreduce_sum(double v) {
  if (me() == 0) {
    auto& ds = coll_.dsum;
    if (ds.size() < nprocs()) ds.resize(nprocs(), 0.0);
    ds[0] = v;
    coll_.arrived += 1;
    proc_.wait_until([this] { return coll_.arrived == nprocs(); });
    // Rank-ordered fold: arrival order must not leak into the FP result
    // (checksums are compared bit-for-bit across backends).
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

void RuntimeProc::allreduce_u64(std::uint64_t* v, std::uint32_t n,
                                ReduceOp op) {
  if (n == 0) return;
  if (me() == 0) {
    auto& acc = coll_.vec;
    if (acc.size() < n) acc.resize(n, 0);
    for (std::uint32_t i = 0; i < n; ++i)
      acc[i] = op == ReduceOp::kSum ? acc[i] + v[i] : std::max(acc[i], v[i]);
    coll_.arrived += 1;
    proc_.wait_until([this] { return coll_.arrived == nprocs(); });
    ACE_CHECK_MSG(coll_.vec.size() == n, "allreduce_u64 length mismatch");
    for (std::uint32_t i = 0; i < n; ++i) v[i] = coll_.vec[i];
    coll_.vec.clear();
    coll_.arrived = 0;
  } else {
    proc_.send(0, rt_.h_reduce_u64_, {op == ReduceOp::kSum ? 0ull : 1ull},
               am::PayloadRef::copy_of(v, n * sizeof(std::uint64_t)));
  }
  bcast_bytes(v, n * sizeof(std::uint64_t), 0);
}

std::uint64_t RuntimeProc::allreduce_min(std::uint64_t v) {
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

// ---------------------------------------------------------------------------
// The paper's C-style API (Table 2 / Figure 3)
// ---------------------------------------------------------------------------

SpaceId Ace_NewSpace(const std::string& protocol) {
  return Runtime::cur().new_space(protocol);
}
void Ace_ChangeProtocol(SpaceId space, const std::string& protocol) {
  Runtime::cur().change_protocol(space, protocol);
}
RegionId Ace_GMalloc(SpaceId space, std::uint32_t size) {
  return Runtime::cur().gmalloc(space, size);
}
void Ace_Barrier(SpaceId space) { Runtime::cur().ace_barrier(space); }
void Ace_Acquire(SpaceId space) { Runtime::cur().ace_acquire(space); }
void Ace_Release(SpaceId space) { Runtime::cur().ace_release(space); }
void Ace_Lock(void* mapped) { Runtime::cur().ace_lock(mapped); }
void Ace_UnLock(void* mapped) { Runtime::cur().ace_unlock(mapped); }
void* ACE_MAP(RegionId id) { return Runtime::cur().map(id); }
void ACE_UNMAP(void* mapped) { Runtime::cur().unmap(mapped); }
void ACE_START_READ(void* mapped) { Runtime::cur().start_read(mapped); }
void ACE_END_READ(void* mapped) { Runtime::cur().end_read(mapped); }
void ACE_START_WRITE(void* mapped) { Runtime::cur().start_write(mapped); }
void ACE_END_WRITE(void* mapped) { Runtime::cur().end_write(mapped); }

}  // namespace ace
