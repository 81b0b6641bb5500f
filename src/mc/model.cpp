#include "mc/model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ace::mc {

namespace {

std::uint8_t bit(int p) { return static_cast<std::uint8_t>(1u << p); }

void line(std::string* desc, const std::string& s) {
  if (desc == nullptr) return;
  desc->append(s);
  desc->push_back('\n');
}

std::string pv(Val v) { return std::to_string(static_cast<int>(v)); }

}  // namespace

const char* to_string(MsgKind k) {
  switch (k) {
    case MsgKind::kFence: return "fence";
    case MsgKind::kVFetch: return "fetch";
    case MsgKind::kVData: return "fetch-data";
    case MsgKind::kVUpdate: return "update";
    case MsgKind::kVPush: return "push";
    case MsgKind::kVDrop: return "drop";
    case MsgKind::kVWriteBack: return "write-back";
    case MsgKind::kVWbAck: return "wb-ack";
    case MsgKind::kDReadReq: return "read-req";
    case MsgKind::kDWriteReq: return "write-req";
    case MsgKind::kDReadData: return "read-data";
    case MsgKind::kDWriteData: return "write-data";
    case MsgKind::kDInv: return "inval";
    case MsgKind::kDInvAck: return "inval-ack";
    case MsgKind::kDRecallS: return "recall-shared";
    case MsgKind::kDRecallX: return "recall-excl";
    case MsgKind::kDRecallData: return "recall-data";
    case MsgKind::kOAcquire: return "acquire";
    case MsgKind::kORecall: return "owner-recall";
    case MsgKind::kOMigData: return "mig-data";
    case MsgKind::kOGrant: return "grant";
  }
  return "?";
}

bool trans_dependent(const Trans& x, const Trans& y) {
  const int px = x.kind == Trans::kStep ? x.a : x.b;  // proc whose state mutates
  const int py = y.kind == Trans::kStep ? y.a : y.b;
  if (px == py) return true;
  // x may send into a channel y consumes (enabling), or vice versa: the
  // sender side of a delivery is the proc acting (its handler sends), a
  // step's sender is the stepping proc itself.
  if (y.kind == Trans::kDeliver && y.a == px) return true;
  if (x.kind == Trans::kDeliver && x.a == py) return true;
  return false;
}

Model::Model(const StackSpec& spec, const Litmus& lit)
    : spec_(spec), lit_(lit) {
  ACE_CHECK(lit_.nprocs >= 2 && lit_.nprocs <= kMaxProcs);
  ACE_CHECK(lit_.nregions >= 1 && lit_.nregions <= kMaxRegions);
  ACE_CHECK_MSG(stack_executable(spec_),
                "mc::Model on a stack whose machinery is absent");
}

State Model::initial() const {
  State st;
  if (spec_.fetch == FetchBlock::kOwner) {
    for (int r = 0; r < lit_.nregions; ++r) {
      st.home[r].owner = lit_.home[r];
      st.copy[lit_.home[r]][r].st = 1;
    }
  }
  return st;
}

bool Model::all_done(const State& st) const {
  for (int p = 0; p < lit_.nprocs; ++p)
    if (st.procs[p].status != PStatus::kReady ||
        st.procs[p].pc != lit_.prog[p].size())
      return false;
  return true;
}

void Model::enabled(const State& st, std::vector<Trans>& out) const {
  out.clear();
  for (int p = 0; p < lit_.nprocs; ++p)
    if (st.procs[p].status == PStatus::kReady &&
        st.procs[p].pc < lit_.prog[p].size())
      out.push_back({Trans::kStep, static_cast<std::uint8_t>(p), 0});
  for (int s = 0; s < lit_.nprocs; ++s)
    for (int d = 0; d < lit_.nprocs; ++d)
      if (!st.chan[s][d].empty())
        out.push_back({Trans::kDeliver, static_cast<std::uint8_t>(s),
                       static_cast<std::uint8_t>(d)});
}

State Model::apply(const State& st, const Trans& t, std::string* desc) const {
  State ns = st;
  if (t.kind == Trans::kStep)
    step_proc(ns, t.a, desc);
  else
    deliver(ns, t.a, t.b, desc);
  normalize(ns, desc);
  return ns;
}

void Model::send(State& st, int src, int dst, MMsg m, std::string* desc) const {
  ACE_CHECK(src != dst);
  st.chan[src][dst].push_back(m);
  if (m.kind != MsgKind::kFence)
    line(desc, "    P" + std::to_string(src) + " -> P" + std::to_string(dst) +
                   ": " + to_string(m.kind) + "(" + rname(m.region) +
                   ")=" + pv(m.value));
}

void Model::record_read(State& st, int p, Val v, std::string* desc) const {
  st.procs[p].reads.push_back(v);
  line(desc, "  P" + std::to_string(p) + ": read " +
                 rname(lit_.prog[p][st.procs[p].pc].region) + " = " + pv(v));
  st.procs[p].pc++;
  st.procs[p].status = PStatus::kReady;
}

void Model::complete_op(State& st, int p, std::string* desc) const {
  st.procs[p].status = PStatus::kReady;
  const LitOp& op = lit_.prog[p][st.procs[p].pc];
  if (op.kind == OpKind::kRead)
    do_read(st, p, op, desc);
  else
    do_write(st, p, op, desc);
}

// --- program steps ----------------------------------------------------------

void Model::step_proc(State& st, int p, std::string* desc) const {
  const LitOp& op = lit_.prog[p][st.procs[p].pc];
  switch (op.kind) {
    case OpKind::kRead: do_read(st, p, op, desc); break;
    case OpKind::kWrite: do_write(st, p, op, desc); break;
    case OpKind::kBarrier: enter_barrier(st, p, desc); break;
    case OpKind::kAcquire: do_acquire(st, p, desc); break;
    case OpKind::kRelease: do_release(st, p, desc); break;
  }
}

void Model::do_read(State& st, int p, const LitOp& op, std::string* desc) const {
  const int r = op.region;
  const int h = lit_.home[r];
  Copy& c = st.copy[p][r];
  switch (spec_.fetch) {
    case FetchBlock::kNone:
      record_read(st, p, c.val, desc);
      return;
    case FetchBlock::kValidBit:
      if (p == h) {
        record_read(st, p, st.home[r].val, desc);
      } else if (c.st != 0) {
        record_read(st, p, c.val, desc);
      } else {
        line(desc, "  P" + std::to_string(p) + ": read " + rname(r) +
                       " -> miss, fetch from home P" + std::to_string(h));
        send(st, p, h, {MsgKind::kVFetch, op.region, 0}, desc);
        st.procs[p].status = PStatus::kBlocked;
      }
      return;
    case FetchBlock::kDirectory:
      if (c.st >= kDirS) {
        record_read(st, p, p == h ? st.home[r].val : c.val, desc);
      } else {
        line(desc, "  P" + std::to_string(p) + ": read " + rname(r) +
                       " -> I, read request to home P" + std::to_string(h));
        dir_request(st, p, r, /*is_write=*/false, desc);
      }
      return;
    case FetchBlock::kOwner:
      if (c.st != 0) {
        record_read(st, p, c.val, desc);
      } else {
        line(desc, "  P" + std::to_string(p) + ": read " + rname(r) +
                       " -> not owner, acquire via home P" + std::to_string(h));
        own_request(st, p, r, desc);
      }
      return;
  }
}

void Model::do_write(State& st, int p, const LitOp& op, std::string* desc) const {
  const int r = op.region;
  const int h = lit_.home[r];
  const Val v = op.value;
  Copy& c = st.copy[p][r];
  const std::string who = "  P" + std::to_string(p) + ": write " + rname(r) +
                          "=" + pv(v);
  switch (spec_.write) {
    case WriteBlock::kLocal:
      // No propagation machinery: the write lands on whatever copy the
      // processor holds (home memory at the home, a private copy elsewhere).
      if (spec_.fetch == FetchBlock::kNone) {
        c.val = v;
        line(desc, who + " (private copy)");
      } else if (p == h) {
        st.home[r].val = v;
        c.val = v;
        line(desc, who + " (home memory)");
      } else {
        c.st = spec_.fetch == FetchBlock::kValidBit ? 1 : c.st;
        c.val = v;
        line(desc, who + " (local copy only; never propagated)");
      }
      st.procs[p].pc++;
      return;
    case WriteBlock::kPushOnWrite:
      if (p == h) {
        st.home[r].val = v;
        line(desc, who + " (home memory), push to sharers");
        for (int q = 0; q < lit_.nprocs; ++q)
          if (q != p && (st.home[r].sharers & bit(q)))
            send(st, p, q, {MsgKind::kVPush, op.region, v}, desc);
        st.procs[p].pc++;
      } else if (c.st == 0) {
        line(desc, who + " -> copy invalid, fetch from home P" +
                       std::to_string(h));
        send(st, p, h, {MsgKind::kVFetch, op.region, 0}, desc);
        st.procs[p].status = PStatus::kBlocked;
      } else {
        c.val = v;
        line(desc, who + " (local copy), update to home");
        if (spec_.order == OrderBlock::kSelfInvalidate)
          st.procs[p].pending_wb++;  // the home acks updates under this order
        send(st, p, h, {MsgKind::kVUpdate, op.region, v}, desc);
        st.procs[p].pc++;
      }
      return;
    case WriteBlock::kMarkDirty:
    case WriteBlock::kHomeOnly:
      if (p != h) {
        st.violation = "illegal remote write on an owner-computes stack";
        return;
      }
      st.home[r].val = v;
      if (spec_.write == WriteBlock::kMarkDirty) {
        st.home[r].dirty = true;
        line(desc, who + " (home memory, marked dirty)");
      } else {
        line(desc, who + " (home memory)");
      }
      st.procs[p].pc++;
      return;
    case WriteBlock::kWriteThrough:
      if (p == h) {
        st.home[r].val = v;
        line(desc, who + " (home memory)");
        st.procs[p].pc++;
      } else if (c.st == 0) {
        line(desc, who + " -> copy invalid, fetch from home P" +
                       std::to_string(h));
        send(st, p, h, {MsgKind::kVFetch, op.region, 0}, desc);
        st.procs[p].status = PStatus::kBlocked;
      } else {
        c.val = v;
        line(desc, who + " (local copy), write through to home");
        if (spec_.order == OrderBlock::kSelfInvalidate)
          st.procs[p].pending_wb++;  // the home acks updates under this order
        send(st, p, h, {MsgKind::kVUpdate, op.region, v}, desc);
        st.procs[p].pc++;
      }
      return;
    case WriteBlock::kDowngradeOnRelease:
      // Writes buffer in the local copy (st=2: valid+dirty); Ace_Release or
      // the barrier's release half writes the whole copy back to the home.
      if (p == h) {
        st.home[r].val = v;
        c.val = v;
        line(desc, who + " (home memory)");
        st.procs[p].pc++;
      } else if (c.st == 0) {
        line(desc, who + " -> copy invalid, fetch from home P" +
                       std::to_string(h));
        send(st, p, h, {MsgKind::kVFetch, op.region, 0}, desc);
        st.procs[p].status = PStatus::kBlocked;
      } else {
        c.st = 2;
        c.val = v;
        line(desc, who + " (local copy, buffered dirty until release)");
        st.procs[p].pc++;
      }
      return;
    case WriteBlock::kExclusive:
      if (c.st == kDirM) {
        c.val = v;
        if (p == h) st.home[r].val = v;
        line(desc, who + " (M copy)");
        st.procs[p].pc++;
      } else {
        line(desc, who + " -> not exclusive, write request to home P" +
                       std::to_string(h));
        dir_request(st, p, r, /*is_write=*/true, desc);
      }
      return;
    case WriteBlock::kMigrate:
      if (c.st != 0) {
        c.val = v;
        if (p == h) st.home[r].val = v;
        line(desc, who + " (owned copy)");
        st.procs[p].pc++;
      } else {
        line(desc, who + " -> not owner, acquire via home P" +
                       std::to_string(h));
        own_request(st, p, r, desc);
      }
      return;
  }
}

void Model::do_acquire(State& st, int p, std::string* desc) const {
  // Ace_Acquire: drop every clean non-home copy so subsequent reads refetch
  // from the home.  Dirty (st==2) copies hold this proc's own buffered
  // writes and survive — dropping them would lose the writes.  Purely
  // local: zero messages, which is the whole point of self-invalidation.
  ACE_CHECK(spec_.order == OrderBlock::kSelfInvalidate);
  line(desc, 'P' + std::to_string(p) + ": acquire");
  for (int r = 0; r < lit_.nregions; ++r) {
    Copy& c = st.copy[p][r];
    if (lit_.home[r] != p && c.st == 1) {
      c.st = 0;
      line(desc, "  P" + std::to_string(p) + ": acquire drops copy of " +
                     rname(r));
    }
  }
  st.procs[p].pc++;
}

void Model::do_release(State& st, int p, std::string* desc) const {
  // Ace_Release: write dirty copies back whole, then wait until the home
  // has acknowledged every outstanding write-back (and acked update).
  // Unlike the barrier there is no trailing fence to order these on the
  // channel, so the ack wait is the only thing that makes the releaser's
  // writes visible-before-release — drop it and handoff finds the schedule
  // where the flag overtakes the data.
  ACE_CHECK(spec_.order == OrderBlock::kSelfInvalidate);
  ProcState& ps = st.procs[p];
  line(desc, 'P' + std::to_string(p) + ": release");
  for (int r = 0; r < lit_.nregions; ++r) {
    Copy& c = st.copy[p][r];
    if (lit_.home[r] != p && c.st == 2) {
      c.st = 1;  // clean again; the copy keeps the written value
      ps.pending_wb++;
      line(desc, "  P" + std::to_string(p) + ": release writes back dirty " +
                     rname(r) + "=" + pv(c.val));
      send(st, p, lit_.home[r],
           {MsgKind::kVWriteBack, static_cast<std::uint8_t>(r), c.val}, desc);
    }
  }
  if (ps.pending_wb > 0) {
    ps.status = PStatus::kInRelease;
    line(desc, "  P" + std::to_string(p) + ": waits for " +
                   std::to_string(ps.pending_wb) + " write-back ack(s)");
  } else {
    ps.pc++;
  }
}

void Model::enter_barrier(State& st, int p, std::string* desc) const {
  // Order-block pre-actions, then the fence round(s).
  switch (spec_.order) {
    case OrderBlock::kPlain:
    case OrderBlock::kDrainTwo:
      break;
    case OrderBlock::kPushDirty:
      for (int r = 0; r < lit_.nregions; ++r)
        if (lit_.home[r] == p && st.home[r].dirty) {
          line(desc, "  P" + std::to_string(p) + ": barrier pushes dirty " +
                         rname(r) + "=" + pv(st.home[r].val));
          for (int q = 0; q < lit_.nprocs; ++q)
            if (q != p && (st.home[r].sharers & bit(q)))
              send(st, p, q,
                   {MsgKind::kVPush, static_cast<std::uint8_t>(r),
                    st.home[r].val},
                   desc);
          st.home[r].dirty = false;
        }
      break;
    case OrderBlock::kInvalDirty:
      for (int r = 0; r < lit_.nregions; ++r)
        if (lit_.home[r] == p && st.home[r].dirty) {
          line(desc, "  P" + std::to_string(p) +
                         ": barrier invalidates sharers of dirty " + rname(r));
          for (int q = 0; q < lit_.nprocs; ++q)
            if (q != p && (st.home[r].sharers & bit(q)))
              send(st, p, q,
                   {MsgKind::kVDrop, static_cast<std::uint8_t>(r), 0},
                   desc);
          st.home[r].sharers = 0;
          st.home[r].dirty = false;
        }
      break;
    case OrderBlock::kDropRemote:
      for (int r = 0; r < lit_.nregions; ++r)
        if (lit_.home[r] != p && st.copy[p][r].st != 0) {
          st.copy[p][r].st = 0;
          line(desc, "  P" + std::to_string(p) + ": barrier drops copy of " +
                         rname(r));
        }
      break;
    case OrderBlock::kSelfInvalidate:
      // Barrier = release half (write dirty copies back; no ack wait —
      // each write-back precedes this proc's fence on the same FIFO
      // channel, so the flush lemma already orders it before anyone leaves)
      // + acquire half (drop every non-home copy, clean or dirty).
      for (int r = 0; r < lit_.nregions; ++r) {
        Copy& c = st.copy[p][r];
        if (lit_.home[r] == p) continue;
        if (c.st == 2) {
          line(desc, "  P" + std::to_string(p) +
                         ": barrier writes back dirty " + rname(r) + "=" +
                         pv(c.val));
          st.procs[p].pending_wb++;  // the home acks; balance the books
          send(st, p, lit_.home[r],
               {MsgKind::kVWriteBack, static_cast<std::uint8_t>(r), c.val},
               desc);
        }
        if (c.st != 0) {
          c.st = 0;
          line(desc, "  P" + std::to_string(p) + ": barrier drops copy of " +
                         rname(r));
        }
      }
      break;
  }
  st.procs[p].rounds_left = spec_.order == OrderBlock::kDrainTwo ? 2 : 1;
  begin_fence_round(st, p, desc);
}

void Model::begin_fence_round(State& st, int p, std::string* desc) const {
  st.procs[p].fence_sent++;
  st.procs[p].status = PStatus::kInBarrier;
  line(desc, "  P" + std::to_string(p) + ": enters barrier fence round " +
                 std::to_string(st.procs[p].fence_sent));
  for (int q = 0; q < lit_.nprocs; ++q)
    if (q != p) send(st, p, q, {MsgKind::kFence, 0, 0}, desc);
}

void Model::normalize(State& st, std::string* desc) const {
  bool again = true;
  while (again && st.violation.empty()) {
    again = false;
    // Fence markers are bookkeeping: consume them the moment they surface
    // at a channel head (they carry no data and only ever unblock).
    for (int s = 0; s < lit_.nprocs; ++s)
      for (int d = 0; d < lit_.nprocs; ++d) {
        auto& ch = st.chan[s][d];
        while (!ch.empty() && ch.front().kind == MsgKind::kFence) {
          ch.erase(ch.begin());
          st.procs[d].fence_got[s]++;
          again = true;
        }
      }
    // A processor finishes its fence wait once it holds the round's fence
    // from every peer — per-channel FIFO has then delivered every message
    // the peers sent before entering, which is exactly the flush lemma.  It
    // then waits on the global release (rank 0's arrive/release round).
    for (int p = 0; p < lit_.nprocs; ++p) {
      ProcState& ps = st.procs[p];
      if (ps.status != PStatus::kInBarrier) continue;
      bool complete = true;
      for (int q = 0; q < lit_.nprocs; ++q)
        if (q != p && ps.fence_got[q] < ps.fence_sent) complete = false;
      if (!complete) continue;
      again = true;
      ps.status = PStatus::kAwaitRelease;
      line(desc, "  P" + std::to_string(p) + ": fence wait done, arrives");
    }
    // Global release: nobody leaves until everyone has arrived.
    bool all_arrived = true;
    for (int p = 0; p < lit_.nprocs; ++p)
      if (st.procs[p].status != PStatus::kAwaitRelease) all_arrived = false;
    if (all_arrived) {
      again = true;
      line(desc, "  barrier release");
      for (int p = 0; p < lit_.nprocs; ++p) {
        ProcState& ps = st.procs[p];
        if (--ps.rounds_left > 0) {
          begin_fence_round(st, p, desc);
        } else {
          ps.status = PStatus::kReady;
          ps.pc++;
          line(desc, "  P" + std::to_string(p) + ": leaves barrier");
        }
      }
    }
  }
}

// --- deliveries -------------------------------------------------------------

void Model::deliver(State& st, int src, int dst, std::string* desc) const {
  auto& ch = st.chan[src][dst];
  ACE_CHECK(!ch.empty());
  const MMsg m = ch.front();
  ch.erase(ch.begin());
  ACE_CHECK(m.kind != MsgKind::kFence);  // normalize() consumed fences
  const int r = m.region;
  const int h = lit_.home[r];
  Copy& c = st.copy[dst][r];
  HomeState& hs = st.home[r];
  line(desc, "  P" + std::to_string(dst) + ": handles " +
                 std::string(to_string(m.kind)) + "(" + rname(r) + ")=" +
                 pv(m.value) + " from P" + std::to_string(src));
  switch (m.kind) {
    case MsgKind::kFence:
      return;
    // --- valid-bit family --------------------------------------------------
    case MsgKind::kVFetch:
      ACE_CHECK(dst == h);
      if (track_sharers()) hs.sharers |= bit(src);
      send(st, dst, src, {MsgKind::kVData, m.region, hs.val}, desc);
      return;
    case MsgKind::kVData:
      c.st = 1;
      c.val = m.value;
      complete_op(st, dst, desc);
      return;
    case MsgKind::kVUpdate:
      ACE_CHECK(dst == h);
      hs.val = m.value;
      if (spec_.order == OrderBlock::kSelfInvalidate)
        send(st, dst, src, {MsgKind::kVWbAck, m.region, 0}, desc);
      if (spec_.write == WriteBlock::kPushOnWrite) {
        hs.sharers |= bit(src);
        for (int q = 0; q < lit_.nprocs; ++q)
          if (q != src && q != dst && (hs.sharers & bit(q)))
            send(st, dst, q, {MsgKind::kVPush, m.region, m.value}, desc);
      }
      return;
    case MsgKind::kVPush:
      if (c.st != 0)
        c.val = m.value;
      else
        line(desc, "    (push to invalid copy ignored)");
      return;
    case MsgKind::kVDrop:
      c.st = 0;
      return;
    case MsgKind::kVWriteBack:
      ACE_CHECK(dst == h);
      hs.val = m.value;
      send(st, dst, src, {MsgKind::kVWbAck, m.region, 0}, desc);
      return;
    case MsgKind::kVWbAck: {
      ProcState& ps = st.procs[dst];
      ACE_CHECK(ps.pending_wb > 0);
      ps.pending_wb--;
      if (ps.status == PStatus::kInRelease && ps.pending_wb == 0) {
        ps.status = PStatus::kReady;
        ps.pc++;
        line(desc, "    P" + std::to_string(dst) + ": release complete");
      }
      return;
    }
    // --- MSI directory -----------------------------------------------------
    case MsgKind::kDReadReq:
      ACE_CHECK(dst == h);
      if (hs.busy)
        hs.queue.push_back({0, static_cast<std::uint8_t>(src)});
      else
        dir_serve(st, r, /*is_write=*/false, src, desc);
      return;
    case MsgKind::kDWriteReq:
      ACE_CHECK(dst == h);
      if (hs.busy)
        hs.queue.push_back({1, static_cast<std::uint8_t>(src)});
      else
        dir_serve(st, r, /*is_write=*/true, src, desc);
      return;
    case MsgKind::kDReadData:
      c.st = kDirS;
      c.val = m.value;
      complete_op(st, dst, desc);
      return;
    case MsgKind::kDWriteData:
      c.st = kDirM;
      c.val = m.value;
      complete_op(st, dst, desc);
      return;
    case MsgKind::kDInv:
      c.st = kDirI;
      send(st, dst, src, {MsgKind::kDInvAck, m.region, 0}, desc);
      return;
    case MsgKind::kDInvAck:
      ACE_CHECK(dst == h && hs.pending_acks > 0);
      hs.pending_acks--;
      hs.sharers &= static_cast<std::uint8_t>(~bit(src));
      dir_try_grant(st, r, desc);
      return;
    case MsgKind::kDRecallS:
      c.st = kDirS;
      send(st, dst, src, {MsgKind::kDRecallData, m.region, c.val}, desc);
      return;
    case MsgKind::kDRecallX:
      send(st, dst, src, {MsgKind::kDRecallData, m.region, c.val}, desc);
      c.st = kDirI;
      return;
    case MsgKind::kDRecallData:
      ACE_CHECK(dst == h && hs.pending_recall);
      hs.val = m.value;
      hs.owner = kNoProc;
      if (hs.req_write == 0) hs.sharers |= bit(src);  // downgraded to S
      hs.pending_recall = false;
      dir_try_grant(st, r, desc);
      return;
    // --- migrating owner ---------------------------------------------------
    case MsgKind::kOAcquire:
      ACE_CHECK(dst == h);
      if (hs.busy)
        hs.queue.push_back({0, static_cast<std::uint8_t>(src)});
      else
        own_serve(st, r, src, desc);
      return;
    case MsgKind::kORecall:
      c.st = 0;
      send(st, dst, h, {MsgKind::kOMigData, m.region, c.val}, desc);
      return;
    case MsgKind::kOMigData: {
      ACE_CHECK(dst == h && hs.busy);
      hs.val = m.value;
      const int q = hs.req_proc;
      hs.owner = static_cast<std::uint8_t>(q);
      hs.busy = false;
      hs.req_proc = kNoProc;
      if (q == h) {
        st.copy[h][r].st = 1;
        st.copy[h][r].val = m.value;
        complete_op(st, h, desc);
      } else {
        send(st, h, q, {MsgKind::kOGrant, m.region, m.value}, desc);
      }
      own_drain(st, r, desc);
      return;
    }
    case MsgKind::kOGrant:
      c.st = 1;
      c.val = m.value;
      complete_op(st, dst, desc);
      return;
  }
}

// --- MSI directory home-side machinery --------------------------------------

void Model::dir_request(State& st, int p, int r, bool is_write,
                        std::string* desc) const {
  const int h = lit_.home[r];
  st.procs[p].status = PStatus::kBlocked;
  if (p == h) {
    if (st.home[r].busy)
      st.home[r].queue.push_back(
          {static_cast<std::uint8_t>(is_write ? 1 : 0),
           static_cast<std::uint8_t>(p)});
    else
      dir_serve(st, r, is_write, p, desc);
  } else {
    send(st, p, h,
         {is_write ? MsgKind::kDWriteReq : MsgKind::kDReadReq,
          static_cast<std::uint8_t>(r), 0},
         desc);
  }
}

void Model::dir_serve(State& st, int r, bool is_write, int requester,
                      std::string* desc) const {
  const int h = lit_.home[r];
  HomeState& hs = st.home[r];
  hs.busy = true;
  hs.req_proc = static_cast<std::uint8_t>(requester);
  hs.req_write = is_write ? 1 : 0;
  hs.pending_acks = 0;
  hs.pending_recall = false;
  if (is_write) {
    // Invalidate every other sharer; recall a foreign M copy.  The home's
    // own S/M state needs no messages (same processor).
    for (int q = 0; q < lit_.nprocs; ++q) {
      if (q == requester || (hs.sharers & bit(q)) == 0) continue;
      if (q == h) {
        st.copy[h][r].st = kDirI;
        hs.sharers &= static_cast<std::uint8_t>(~bit(q));
      } else {
        send(st, h, q, {MsgKind::kDInv, static_cast<std::uint8_t>(r), 0},
             desc);
        hs.pending_acks++;
      }
    }
    if (hs.owner != kNoProc && hs.owner != requester) {
      if (hs.owner == h) {
        st.copy[h][r].st = kDirI;  // home.val is already current
        hs.owner = kNoProc;
      } else {
        send(st, h, hs.owner,
             {MsgKind::kDRecallX, static_cast<std::uint8_t>(r), 0}, desc);
        hs.pending_recall = true;
      }
    }
  } else if (hs.owner != kNoProc && hs.owner != requester) {
    if (hs.owner == h) {
      st.copy[h][r].st = kDirS;  // home.val is already current
      hs.sharers |= bit(h);
      hs.owner = kNoProc;
    } else {
      send(st, h, hs.owner,
           {MsgKind::kDRecallS, static_cast<std::uint8_t>(r), 0}, desc);
      hs.pending_recall = true;
    }
  }
  dir_try_grant(st, r, desc);
}

void Model::dir_try_grant(State& st, int r, std::string* desc) const {
  const int h = lit_.home[r];
  HomeState& hs = st.home[r];
  if (!hs.busy || hs.pending_acks != 0 || hs.pending_recall) return;
  const int q = hs.req_proc;
  hs.busy = false;
  hs.req_proc = kNoProc;
  if (hs.req_write) {
    hs.sharers = 0;
    hs.owner = static_cast<std::uint8_t>(q);
    if (q == h) {
      st.copy[h][r].st = kDirM;
      complete_op(st, h, desc);
    } else {
      send(st, h, q, {MsgKind::kDWriteData, static_cast<std::uint8_t>(r),
                      hs.val},
           desc);
    }
  } else {
    hs.sharers |= bit(q);
    if (q == h) {
      st.copy[h][r].st = kDirS;
      complete_op(st, h, desc);
    } else {
      send(st, h, q,
           {MsgKind::kDReadData, static_cast<std::uint8_t>(r), hs.val}, desc);
    }
  }
  dir_drain(st, r, desc);
}

void Model::dir_drain(State& st, int r, std::string* desc) const {
  HomeState& hs = st.home[r];
  if (hs.busy || hs.queue.empty()) return;
  const auto [w, q] = hs.queue.front();
  hs.queue.erase(hs.queue.begin());
  dir_serve(st, r, w != 0, q, desc);
}

// --- migrating-owner home-side machinery ------------------------------------

void Model::own_request(State& st, int p, int r, std::string* desc) const {
  const int h = lit_.home[r];
  st.procs[p].status = PStatus::kBlocked;
  if (p == h) {
    if (st.home[r].busy)
      st.home[r].queue.push_back({0, static_cast<std::uint8_t>(p)});
    else
      own_serve(st, r, p, desc);
  } else {
    send(st, p, h, {MsgKind::kOAcquire, static_cast<std::uint8_t>(r), 0},
         desc);
  }
}

void Model::own_serve(State& st, int r, int requester,
                      std::string* desc) const {
  const int h = lit_.home[r];
  HomeState& hs = st.home[r];
  const int w = hs.owner;
  ACE_CHECK(w != requester);
  hs.busy = true;
  hs.req_proc = static_cast<std::uint8_t>(requester);
  if (w == h) {
    // The home owns: home.val is current, hand off directly.
    st.copy[h][r].st = 0;
    hs.owner = static_cast<std::uint8_t>(requester);
    hs.busy = false;
    hs.req_proc = kNoProc;
    send(st, h, requester,
         {MsgKind::kOGrant, static_cast<std::uint8_t>(r), hs.val}, desc);
    own_drain(st, r, desc);
  } else {
    send(st, h, w, {MsgKind::kORecall, static_cast<std::uint8_t>(r), 0},
         desc);
  }
}

void Model::own_drain(State& st, int r, std::string* desc) const {
  HomeState& hs = st.home[r];
  if (hs.busy || hs.queue.empty()) return;
  const int q = hs.queue.front().second;
  hs.queue.erase(hs.queue.begin());
  own_serve(st, r, q, desc);
}

// --- terminal checks, keys, outcomes ----------------------------------------

std::string Model::check_terminal(const State& st) const {
  for (int p = 0; p < lit_.nprocs; ++p) {
    const auto& want = lit_.allowed[p];
    const auto& got = st.procs[p].reads;
    if (got.size() != want.size()) {
      std::string s = "P";
      s += std::to_string(p);
      s += " recorded " + std::to_string(got.size()) + " reads, program has " +
           std::to_string(want.size());
      return s;
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (want[i].empty()) continue;
      if (std::find(want[i].begin(), want[i].end(), got[i]) == want[i].end()) {
        std::string s = "P";
        s += std::to_string(p);
        s += " read #" + std::to_string(i + 1) + " returned " + pv(got[i]) +
             ", allowed {";
        for (std::size_t k = 0; k < want[i].size(); ++k) {
          if (k) s += ' ';
          s += pv(want[i][k]);
        }
        return s + "}";
      }
    }
  }
  if (lit_.forbid_joint &&
      st.procs[lit_.joint_p0].reads[lit_.joint_slot0] == lit_.joint_v0 &&
      st.procs[lit_.joint_p1].reads[lit_.joint_slot1] == lit_.joint_v1) {
    std::string s = "forbidden joint outcome (P";
    s += std::to_string(lit_.joint_p0);
    s += " read " + pv(lit_.joint_v0) + ", P" +
         std::to_string(lit_.joint_p1) + " read " + pv(lit_.joint_v1) +
         ") — conflicting accesses were not serialized";
    return s;
  }
  return "";
}

std::string Model::key(const State& st) const {
  std::string k;
  k.reserve(96);
  for (int p = 0; p < lit_.nprocs; ++p) {
    const ProcState& ps = st.procs[p];
    k.push_back(static_cast<char>(ps.pc));
    k.push_back(static_cast<char>(ps.status));
    k.push_back(static_cast<char>(ps.fence_sent));
    k.push_back(static_cast<char>(ps.rounds_left));
    k.push_back(static_cast<char>(ps.pending_wb));
    for (int q = 0; q < lit_.nprocs; ++q)
      k.push_back(static_cast<char>(ps.fence_got[q]));
    k.push_back(static_cast<char>(ps.reads.size()));
    for (Val v : ps.reads) k.push_back(static_cast<char>(v));
  }
  for (int p = 0; p < lit_.nprocs; ++p)
    for (int r = 0; r < lit_.nregions; ++r) {
      k.push_back(static_cast<char>(st.copy[p][r].st));
      k.push_back(static_cast<char>(st.copy[p][r].val));
    }
  for (int r = 0; r < lit_.nregions; ++r) {
    const HomeState& hs = st.home[r];
    k.push_back(static_cast<char>(hs.val));
    k.push_back(static_cast<char>(hs.sharers));
    k.push_back(static_cast<char>(hs.dirty));
    k.push_back(static_cast<char>(hs.owner));
    k.push_back(static_cast<char>(hs.busy));
    k.push_back(static_cast<char>(hs.req_proc));
    k.push_back(static_cast<char>(hs.req_write));
    k.push_back(static_cast<char>(hs.pending_acks));
    k.push_back(static_cast<char>(hs.pending_recall));
    k.push_back(static_cast<char>(hs.queue.size()));
    for (const auto& [w, q] : hs.queue) {
      k.push_back(static_cast<char>(w));
      k.push_back(static_cast<char>(q));
    }
  }
  for (int s = 0; s < lit_.nprocs; ++s)
    for (int d = 0; d < lit_.nprocs; ++d) {
      k.push_back(static_cast<char>(st.chan[s][d].size()));
      for (const MMsg& m : st.chan[s][d]) {
        k.push_back(static_cast<char>(m.kind));
        k.push_back(static_cast<char>(m.region));
        k.push_back(static_cast<char>(m.value));
      }
    }
  return k;
}

std::string Model::outcome(const State& st) const {
  std::string s;
  for (int p = 0; p < lit_.nprocs; ++p) {
    if (lit_.allowed[p].empty()) continue;
    if (!s.empty()) s += ' ';
    s += 'P';
    s += std::to_string(p);
    s += ":[";
    for (std::size_t i = 0; i < st.procs[p].reads.size(); ++i) {
      if (i) s += ' ';
      s += pv(st.procs[p].reads[i]);
    }
    s += ']';
  }
  return s;
}

}  // namespace ace::mc
