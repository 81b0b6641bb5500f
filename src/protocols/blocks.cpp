// Stateful fetch-stage engines for composed protocols: ValidBitBlock
// (DynamicUpdate, StaticUpdate, HomeWrite, ...), DirectoryBlock (SC) and
// OwnerBlock (Migratory).  ProtocolGolden.* (tests/test_protocols.cpp) pins
// their checksums, every DsmStats counter and the message count to
// tests/data/PROTOCOL_golden.json, recorded from the monolithic protocols
// these engines replaced.  DirectoryBlock's state machine is
// dsm::DirectoryEngine (dsm/directory.hpp).
#include "protocols/blocks.hpp"

namespace ace::protocols::blocks {

// --- ValidBitBlock ---------------------------------------------------------

void ValidBitBlock::fetch(Region& r) {
  rp_.dstats(space_id_).read_misses += 1;
  rp_.blocking_request(r,
                       [&] { rp_.send_proto(r.home_proc(), r.id(), kFetch); });
}

void ValidBitBlock::start_read(Region& r) {
  if (r.is_home() || (r.pstate & kValid)) return;
  fetch(r);
}

void ValidBitBlock::start_write(Region& r) {
  switch (info_.stack.write) {
    case WriteBlock::kPushOnWrite:
    case WriteBlock::kWriteThrough:
    case WriteBlock::kDowngradeOnRelease:
      // A remote writer works through its own copy, so it must hold a valid
      // one first.
      if (!r.is_home() && !(r.pstate & kValid)) fetch(r);
      return;
    case WriteBlock::kMarkDirty:
      ACE_CHECK_MSG(r.is_home(),
                    (info_.name +
                     " requires owner-computes: only the home writes")
                        .c_str());
      return;
    case WriteBlock::kHomeOnly:
      ACE_CHECK_MSG(
          r.is_home(),
          (info_.name + ": only the creating processor may write a region")
              .c_str());
      return;
    default:
      ACE_CHECK_MSG(false, "valid_bit stack with a foreign write block");
  }
}

void ValidBitBlock::end_write(Region& r) {
  switch (info_.stack.write) {
    case WriteBlock::kPushOnWrite:
      if (r.is_home()) {
        auto& dir = r.ext_as<HomeDir>();
        r.version += 1;
        dir.sharers.push_to_all(rp_, r, kPush);
      } else {
        rp_.dstats(space_id_).updates += 1;
        rp_.send_proto(r.home_proc(), r.id(), kUpdate, 0, 0, rp_.snapshot(r));
      }
      return;
    case WriteBlock::kMarkDirty:
      r.ext_as<HomeDir>().dirty = true;
      r.version += 1;
      return;
    case WriteBlock::kHomeOnly:
      r.version += 1;
      return;
    case WriteBlock::kWriteThrough:
      if (r.is_home()) {
        r.version += 1;
      } else {
        // Forward the write eagerly so the home copy is always current; the
        // barrier's drop_remote stage makes other consumers refetch it.
        // Under the self_invalidate order the home acknowledges each update
        // so Ace_Release can prove all of them have landed.
        rp_.dstats(space_id_).updates += 1;
        if (self_invalidate()) pending_acks_ += 1;
        rp_.send_proto(r.home_proc(), r.id(), kUpdate,
                       /*want_ack=*/self_invalidate() ? 1 : 0, 0,
                       rp_.snapshot(r));
      }
      return;
    case WriteBlock::kDowngradeOnRelease:
      // Writes buffer in the local copy; Ace_Release (or the barrier's
      // release half) writes the whole dirty copy back home.
      if (r.is_home()) {
        r.version += 1;
      } else {
        r.pstate |= kDirty;
      }
      return;
    default:
      ACE_CHECK_MSG(false, "valid_bit stack with a foreign write block");
  }
}

void ValidBitBlock::acquire() {
  if (!self_invalidate()) return;
  // Drop clean remote copies so later reads refetch from the home; purely
  // local, zero messages.  Dirty copies hold this processor's own buffered
  // writes (newer than the home), so they survive.
  rp_.regions().for_each_in_space(space_id_, [&](Region& r) {
    if (!r.is_home() && !(r.pstate & kDirty)) r.pstate &= ~kValid;
  });
}

void ValidBitBlock::release() {
  if (!self_invalidate()) return;
  if (info_.stack.write == WriteBlock::kDowngradeOnRelease) {
    rp_.regions().for_each_in_space(space_id_, [&](Region& r) {
      if (r.is_home() || !(r.pstate & kDirty)) return;
      r.pstate &= ~kDirty;
      pending_acks_ += 1;
      rp_.dstats(space_id_).writebacks += 1;
      rp_.send_proto(r.home_proc(), r.id(), kWriteBack, /*want_ack=*/1, 0,
                     rp_.snapshot(r));
    });
  }
  // A release completes only once the home has confirmed every write this
  // processor sent it (write-backs above, or write_through's eager acked
  // updates): after that, any acquirer's refetch observes the released data.
  if (pending_acks_ > 0) {
    rp_.proc().charge_rtt();
    rp_.proc().wait_until([this] { return pending_acks_ == 0; });
  }
}

void ValidBitBlock::barrier() {
  switch (info_.stack.order) {
    case OrderBlock::kDrainTwo:
      // Two machine barriers: updates in flight to the home are delivered
      // before anyone leaves the first; the home's forwarded pushes are
      // delivered before anyone leaves the second (the flush lemma, twice).
      rp_.proc().barrier();
      rp_.proc().barrier();
      return;
    case OrderBlock::kPushDirty:
      // Push every region written since the last barrier to its recorded
      // sharers, then synchronize.  One hop before the barrier, so the flush
      // lemma guarantees every sharer applies the push before leaving it.
      rp_.regions().for_each_in_space(space_id_, [&](Region& r) {
        if (!r.is_home() || !r.ext) return;
        auto& dir = r.ext_as<HomeDir>();
        if (!dir.dirty) return;
        dir.dirty = false;
        dir.sharers.push_to_all(rp_, r, kPush);
      });
      rp_.proc().barrier();
      return;
    case OrderBlock::kInvalDirty:
      // Invalidate instead of pushing: sharers of a dirty region drop their
      // copies (and leave the directory) and refetch on next use.  Cheaper
      // than push_dirty when consumers change between epochs.
      rp_.regions().for_each_in_space(space_id_, [&](Region& r) {
        if (!r.is_home() || !r.ext) return;
        auto& dir = r.ext_as<HomeDir>();
        if (!dir.dirty) return;
        dir.dirty = false;
        for (am::ProcId s : dir.sharers.procs()) {
          rp_.dstats(space_id_).invalidations += 1;
          rp_.send_proto(s, r.id(), kDrop);
        }
        dir.sharers.clear();
      });
      rp_.proc().barrier();
      return;
    case OrderBlock::kDropRemote:
      // Every epoch's consumers refetch: drop local validity of remote
      // copies, then synchronize.
      rp_.regions().for_each_in_space(space_id_, [&](Region& r) {
        if (!r.is_home()) r.pstate &= ~kValid;
      });
      rp_.proc().barrier();
      return;
    case OrderBlock::kSelfInvalidate:
      // Barrier = release + acquire: write dirty buffered copies back and
      // drop every remote copy, then one machine barrier.  No acks needed on
      // this path — each write-back precedes its sender's barrier fence on
      // the same FIFO channel, so the flush lemma delivers it before the
      // home leaves the barrier (Ace_Release alone has no trailing fence,
      // which is why *it* must wait for acks).
      rp_.regions().for_each_in_space(space_id_, [&](Region& r) {
        if (r.is_home()) return;
        if (r.pstate & kDirty) {
          rp_.dstats(space_id_).writebacks += 1;
          rp_.send_proto(r.home_proc(), r.id(), kWriteBack, 0, 0,
                         rp_.snapshot(r));
        }
        r.pstate &= ~(kValid | kDirty);
      });
      rp_.proc().barrier();
      return;
    default:
      ACE_CHECK_MSG(false, "valid_bit stack with a foreign order block");
  }
}

void ValidBitBlock::flush() {
  rp_.regions().for_each_in_space(space_id_, [&](Region& r) {
    if (r.is_home()) return;
    // ChangeProtocol's base state: all data valid at its home.  Dirty
    // buffered writes (downgrade_on_release) must go home first; the flush
    // bracket's machine barrier delivers them before the new protocol
    // installs (flush lemma).
    if (r.pstate & kDirty) {
      rp_.dstats(space_id_).writebacks += 1;
      rp_.send_proto(r.home_proc(), r.id(), kWriteBack, 0, 0, rp_.snapshot(r));
    }
    r.pstate &= ~(kValid | kDirty);
  });
}

void ValidBitBlock::on_message(Region& r, std::uint32_t op, am::Message& m) {
  switch (static_cast<Op>(op)) {
    case kFetch:
      ACE_DCHECK(r.is_home());
      if (track_sharers()) r.ext_as<HomeDir>().sharers.add(m.src);
      rp_.dstats(space_id_).fetches += 1;
      rp_.send_proto(m.src, r.id(), kFetchData, 0, 0, rp_.snapshot(r));
      return;
    case kFetchData:
      rp_.install_data(r, m.payload);
      r.pstate |= kValid;
      r.op_done = true;
      return;
    case kUpdate: {
      ACE_DCHECK(r.is_home());
      rp_.install_data(r, m.payload);
      if (info_.stack.write == WriteBlock::kPushOnWrite) {
        auto& dir = r.ext_as<HomeDir>();
        for (am::ProcId s : dir.sharers.procs()) {
          if (s == m.src) continue;
          rp_.dstats(space_id_).updates += 1;
          rp_.send_proto(s, r.id(), kPush, 0, 0, m.payload);
        }
      }
      if (m.args[3] == 1) rp_.send_proto(m.src, r.id(), kWbAck);
      return;
    }
    case kPush:
      if (info_.stack.write == WriteBlock::kPushOnWrite) {
        // A copy dropped by flush/ChangeProtocol ignores late pushes.
        if (r.pstate & kValid) rp_.install_data(r, m.payload);
      } else {
        rp_.install_data(r, m.payload);
        r.pstate |= kValid;
      }
      return;
    case kDrop:
      r.pstate &= ~kValid;
      return;
    case kWriteBack:
      ACE_DCHECK(r.is_home());
      rp_.install_data(r, m.payload);
      if (m.args[3] == 1) rp_.send_proto(m.src, r.id(), kWbAck);
      return;
    case kWbAck:
      ACE_DCHECK(pending_acks_ > 0);
      pending_acks_ -= 1;
      return;
  }
  ACE_CHECK_MSG(false, "unknown valid_bit stack opcode");
}

// --- OwnerBlock ------------------------------------------------------------

void OwnerBlock::region_created(Region& r) {
  r.pstate |= kOwned;
  r.ext_as<HomeDir>().owner = rp_.me();
}

void OwnerBlock::init() {
  // Ace_ChangeProtocol to a migrating stack: the base state has every
  // region's data valid at its home, so the home starts as the owner.
  rp_.regions().for_each_in_space(space_id_, [&](Region& r) {
    if (!r.is_home()) return;
    r.pstate |= kOwned;
    r.ext_as<HomeDir>().owner = rp_.me();
  });
}

void OwnerBlock::acquire(Region& r) {
  while (!(r.pstate & kOwned)) {
    if (r.is_home()) {
      auto& dir = r.ext_as<HomeDir>();
      r.op_done = false;
      if (dir.busy)
        dir.queue.push_back(rp_.me());
      else
        serve(r, rp_.me());
      if (!r.op_done) rp_.proc().charge_rtt();
      rp_.proc().wait_until([&r] { return r.op_done; });
    } else {
      rp_.dstats(space_id_).read_misses += 1;
      rp_.blocking_request(
          r, [&] { rp_.send_proto(r.home_proc(), r.id(), kAcquire); });
    }
  }
}

void OwnerBlock::maybe_release(Region& r) {
  if (r.active_readers != 0 || r.active_writers != 0) return;
  r.pstate &= ~kFreshGrant;
  if (r.is_home()) {
    home_release_check(r);
    return;
  }
  if (r.pstate & kPendingRecall) {
    r.pstate &= ~(kOwned | kPendingRecall);
    rp_.send_proto(r.home_proc(), r.id(), kMigData, 0, 0, rp_.snapshot(r));
  }
}

void OwnerBlock::home_release_check(Region& r) {
  auto& dir = r.ext_as<HomeDir>();
  if (!dir.busy || !dir.waiting_local_drain) return;
  dir.busy = false;
  dir.waiting_local_drain = false;
  const am::ProcId req = dir.requester;
  dir.requester = dsm::kNoProc;
  r.pstate &= ~kOwned;
  grant(r, req);
  while (!dir.busy && !dir.queue.empty()) {
    const am::ProcId next = dir.queue.front();
    dir.queue.pop_front();
    serve(r, next);
  }
}

void OwnerBlock::serve(Region& r, am::ProcId requester) {
  auto& dir = r.ext_as<HomeDir>();
  ACE_DCHECK(!dir.busy);
  ACE_CHECK_MSG(dir.owner != requester,
                "owner re-acquiring a region it already holds");
  if (dir.owner == rp_.me()) {
    if (r.active_readers > 0 || r.active_writers > 0 ||
        (r.pstate & kFreshGrant) != 0) {
      dir.busy = true;
      dir.waiting_local_drain = true;
      dir.requester = requester;
      return;
    }
    r.pstate &= ~kOwned;
    grant(r, requester);
    return;
  }
  dir.busy = true;
  dir.requester = requester;
  rp_.dstats(space_id_).recalls += 1;
  rp_.send_proto(dir.owner, r.id(), kRecall);
}

void OwnerBlock::grant(Region& r, am::ProcId requester, bool deferred) {
  auto& dir = r.ext_as<HomeDir>();
  dir.owner = requester;
  rp_.dstats(space_id_).fetches += 1;
  if (requester == rp_.me()) {
    r.pstate |= kOwned | kFreshGrant;
    r.op_done = true;
  } else {
    rp_.send_proto(requester, r.id(), kGrant, deferred ? 1 : 0, 0,
                   rp_.snapshot(r));
  }
}

void OwnerBlock::on_message(Region& r, std::uint32_t op, am::Message& m) {
  switch (static_cast<Op>(op)) {
    case kAcquire: {
      ACE_DCHECK(r.is_home());
      auto& dir = r.ext_as<HomeDir>();
      if (dir.busy)
        dir.queue.push_back(m.src);
      else
        serve(r, m.src);
      return;
    }
    case kRecall:
      ACE_CHECK_MSG(r.pstate & kOwned, "recall of a region we do not own");
      if (r.active_readers > 0 || r.active_writers > 0 ||
          (r.pstate & kFreshGrant) != 0) {
        r.pstate |= kPendingRecall;
      } else {
        r.pstate &= ~kOwned;
        rp_.send_proto(r.home_proc(), r.id(), kMigData, 0, 0, rp_.snapshot(r));
      }
      return;
    case kMigData: {
      ACE_DCHECK(r.is_home());
      auto& dir = r.ext_as<HomeDir>();
      rp_.install_data(r, m.payload);
      if (!dir.busy) {
        // Flush path (ChangeProtocol): ownership returns home.
        dir.owner = rp_.me();
        r.pstate |= kOwned;
        return;
      }
      dir.busy = false;
      const am::ProcId req = dir.requester;
      dir.requester = dsm::kNoProc;
      grant(r, req, /*deferred=*/true);
      while (!dir.busy && !dir.queue.empty()) {
        const am::ProcId next = dir.queue.front();
        dir.queue.pop_front();
        serve(r, next);
      }
      return;
    }
    case kGrant:
      if (m.args[3] == 1) rp_.proc().charge_rtt();  // recall round first
      rp_.install_data(r, m.payload);
      r.pstate |= kOwned | kFreshGrant;
      r.op_done = true;
      return;
  }
  ACE_CHECK_MSG(false, "unknown owner stack opcode");
}

void OwnerBlock::flush() {
  rp_.regions().for_each_in_space(space_id_, [&](Region& r) {
    if (r.is_home() || !(r.pstate & kOwned)) return;
    rp_.dstats(space_id_).flushes += 1;
    r.pstate &= ~kOwned;
    rp_.send_proto(r.home_proc(), r.id(), kMigData, 0, 0, rp_.snapshot(r));
  });
}

}  // namespace ace::protocols::blocks
