#include "am/delivery.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <ostream>
#include <tuple>

#include "am/machine.hpp"
#include "common/check.hpp"

namespace ace::am {

namespace {

/// splitmix64 finalizer: the one-shot mixer every chaos decision hashes
/// through.  Statistically solid and cheap; crucially a *pure* function, so
/// a decision about message (src, seq) at receiver d is the same no matter
/// which host-thread interleaving delivered it.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

// --- ChaosPolicy ----------------------------------------------------------

ChaosPolicy::ChaosPolicy(const ChaosOptions& opt, ProcId owner,
                         const Machine& machine)
    : opt_(opt),
      machine_(&machine),
      stream_(mix64(mix64(opt.seed) ^ (owner + 1))) {}

void ChaosPolicy::select(std::deque<Message> arrivals,
                         std::vector<Delivery>& out) {
  poll_ += 1;
  for (auto& m : arrivals) {
    Parked p;
    p.fence = machine_->is_barrier_handler(m.handler);
    if (p.fence) {
      // Barrier traffic is never held or jittered; fences only wait for
      // everything that arrived before them.
      p.due_poll = poll_;
    } else {
      std::uint64_t key = mix64(stream_ ^ (static_cast<std::uint64_t>(m.src) + 1));
      key = mix64(key ^ m.seq);
      const bool hold =
          opt_.p_hold > 0.0 &&
          static_cast<double>(mix64(key ^ 1) >> 11) * 0x1.0p-53 < opt_.p_hold;
      p.due_poll = poll_ + (hold && opt_.max_hold_polls != 0
                                ? 1 + mix64(key ^ 2) % opt_.max_hold_polls
                                : 0);
      p.jitter_ns =
          opt_.max_jitter_ns != 0 ? mix64(key ^ 3) % (opt_.max_jitter_ns + 1) : 0;
      p.prio = mix64(key ^ 4);
    }
    p.m = std::move(m);
    parked_.push_back(std::move(p));
  }

  // Release every deliverable message, re-scanning after each batch because
  // a delivery can unblock its sender's next message or a fence.
  while (true) {
    std::vector<std::size_t> cands;
    std::vector<ProcId> seen_srcs;
    for (std::size_t i = 0; i < parked_.size(); ++i) {
      const Parked& e = parked_[i];
      if (e.fence) {
        // A fence delivers only once everything before it has; nothing
        // after an undelivered fence may deliver either.
        if (i == 0) cands.push_back(i);
        break;
      }
      if (std::find(seen_srcs.begin(), seen_srcs.end(), e.m.src) !=
          seen_srcs.end())
        continue;  // per-sender FIFO: only each sender's oldest is eligible
      seen_srcs.push_back(e.m.src);
      if (e.due_poll <= poll_) cands.push_back(i);
    }
    if (cands.empty()) break;

    std::sort(cands.begin(), cands.end(), [&](std::size_t a, std::size_t b) {
      const Parked& x = parked_[a];
      const Parked& y = parked_[b];
      return std::tie(x.prio, x.m.src, x.m.seq) <
             std::tie(y.prio, y.m.src, y.m.seq);
    });
    for (std::size_t i : cands) {
      Parked& e = parked_[i];
      log_.push_back({e.m.src, e.m.seq, e.m.handler, e.jitter_ns});
      out.push_back({std::move(e.m), e.jitter_ns});
    }
    std::sort(cands.begin(), cands.end(), std::greater<>());
    for (std::size_t i : cands)
      parked_.erase(parked_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void ChaosPolicy::dump(std::ostream& os) const {
  os << "  chaos policy: seed=" << opt_.seed << " polls=" << poll_
     << " delivered=" << log_.size() << " parked=" << parked_.size() << "\n";
  for (const auto& e : parked_)
    os << "    parked: src=" << e.m.src << " seq=" << e.m.seq
       << " handler=" << machine_->handler_name(e.m.handler) << "("
       << e.m.handler << ")" << (e.fence ? " [fence]" : "")
       << " due_poll=" << e.due_poll << "\n";
}

// --- ReplayPolicy ---------------------------------------------------------

ReplayPolicy::ReplayPolicy(DeliveryLog script) : script_(std::move(script)) {}

void ReplayPolicy::select(std::deque<Message> arrivals,
                          std::vector<Delivery>& out) {
  for (auto& m : arrivals) parked_.push_back(std::move(m));

  while (cursor_ < script_.size()) {
    const DeliveryRecord& want = script_[cursor_];
    auto it = std::find_if(parked_.begin(), parked_.end(), [&](const Message& m) {
      return m.src == want.src && m.seq == want.seq;
    });
    if (it == parked_.end()) {
      // Not arrived yet.  If this sender's oldest parked message of the same
      // origin is already *past* the wanted seq, the wanted message can
      // never arrive: the run has diverged from the script.
      for (const Message& m : parked_)
        if (m.src == want.src &&
            (m.seq & kHandlerSeqBit) == (want.seq & kHandlerSeqBit)) {
          ACE_CHECK_MSG(m.seq <= want.seq,
                        "delivery replay diverged: the scripted message was "
                        "never sent in this run");
          break;
        }
      break;
    }
    ACE_CHECK_MSG(it->handler == want.handler,
                  "delivery replay diverged: handler mismatch at script cursor");
    log_.push_back(want);
    out.push_back({std::move(*it), want.jitter_ns});
    parked_.erase(it);
    cursor_ += 1;
  }

  if (cursor_ >= script_.size()) {
    // Script exhausted: fall back to plain FIFO for the remainder.
    for (auto& m : parked_) {
      log_.push_back({m.src, m.seq, m.handler, 0});
      out.push_back({std::move(m), 0});
    }
    parked_.clear();
  }
}

void ReplayPolicy::dump(std::ostream& os) const {
  os << "  replay policy: cursor=" << cursor_ << "/" << script_.size()
     << " parked=" << parked_.size() << "\n";
  if (cursor_ < script_.size()) {
    const DeliveryRecord& want = script_[cursor_];
    os << "    waiting for: src=" << want.src << " seq=" << want.seq
       << " handler=" << want.handler << "\n";
  }
  for (const Message& m : parked_)
    os << "    parked: src=" << m.src << " seq=" << m.seq
       << " handler=" << m.handler << "\n";
}

// --- log files ------------------------------------------------------------

void write_delivery_logs(std::ostream& os,
                         const std::vector<DeliveryLog>& logs) {
  os << "ace-delivery-log v1\n";
  os << "procs " << logs.size() << "\n";
  for (std::size_t p = 0; p < logs.size(); ++p) {
    os << "proc " << p << " " << logs[p].size() << "\n";
    for (const DeliveryRecord& r : logs[p])
      os << r.src << " " << r.seq << " " << r.handler << " " << r.jitter_ns
         << "\n";
  }
}

bool write_delivery_logs(const std::string& path,
                         const std::vector<DeliveryLog>& logs) {
  std::ofstream f(path);
  if (!f) return false;
  write_delivery_logs(f, logs);
  return static_cast<bool>(f);
}

std::vector<DeliveryLog> read_delivery_logs(std::istream& is) {
  std::string magic, version;
  is >> magic >> version;
  ACE_CHECK_MSG(is && magic == "ace-delivery-log" && version == "v1",
                "not an ace delivery-log file");
  std::string tok;
  std::size_t nprocs = 0;
  is >> tok >> nprocs;
  ACE_CHECK_MSG(is && tok == "procs", "malformed delivery-log header");
  std::vector<DeliveryLog> logs(nprocs);
  for (std::size_t p = 0; p < nprocs; ++p) {
    std::size_t idx = 0, n = 0;
    is >> tok >> idx >> n;
    ACE_CHECK_MSG(is && tok == "proc" && idx == p,
                  "malformed delivery-log proc section");
    logs[p].reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      DeliveryRecord r;
      is >> r.src >> r.seq >> r.handler >> r.jitter_ns;
      ACE_CHECK_MSG(is, "truncated delivery-log record");
      logs[p].push_back(r);
    }
  }
  return logs;
}

std::vector<DeliveryLog> read_delivery_logs(const std::string& path) {
  std::ifstream f(path);
  ACE_CHECK_MSG(static_cast<bool>(f), "cannot open delivery-log file");
  return read_delivery_logs(f);
}

// --- Machine conveniences (defined here so machine.cpp stays policy-free) --

void Machine::set_chaos(const ChaosOptions& opt) {
  ACE_CHECK_MSG(!running_, "set_chaos during Machine::run");
  for (auto& p : procs_)
    p->delivery_ = std::make_unique<ChaosPolicy>(opt, p->id_, *this);
}

void Machine::set_replay(std::vector<DeliveryLog> logs) {
  ACE_CHECK_MSG(!running_, "set_replay during Machine::run");
  ACE_CHECK_MSG(logs.size() == procs_.size(),
                "replay logs do not match the machine's processor count");
  for (std::size_t p = 0; p < procs_.size(); ++p)
    procs_[p]->delivery_ = std::make_unique<ReplayPolicy>(std::move(logs[p]));
}

void Machine::clear_delivery() {
  ACE_CHECK_MSG(!running_, "clear_delivery during Machine::run");
  for (auto& p : procs_) p->delivery_.reset();
}

std::vector<DeliveryLog> Machine::delivery_logs() const {
  std::vector<DeliveryLog> out;
  out.reserve(procs_.size());
  for (const auto& p : procs_)
    out.push_back(p->delivery_ != nullptr ? p->delivery_->log() : DeliveryLog{});
  return out;
}

}  // namespace ace::am
