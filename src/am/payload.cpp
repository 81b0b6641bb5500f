// The payload pool: per-thread magazines in front of one shared depot (the
// magazine layer of Bonwick and Adams, "Magazines and Vmem", USENIX ATC
// 2001).  make and the last release use the calling thread's magazines with
// no lock; only whole magazines cross the depot's mutex.
#include "am/payload.hpp"

#include <algorithm>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

namespace ace::am {
namespace {

// Power-of-two size classes from 64 B to 4 MiB.  Anything larger falls
// through to the plain heap (kUnpooledClass) — large payloads are rare and
// the copy they carry dwarfs an allocator round trip anyway.
constexpr std::size_t kMinClassBytes = 64;
constexpr std::uint32_t kNumClasses = 17;  // 64 << 16 == 4 MiB
constexpr std::uint32_t kUnpooledClass = 0xffffffffu;
// M: the buffers in one magazine, the unit a thread trades with the depot.
constexpr std::uint32_t kMagazine = 32;
// Classes up to 4 KiB (64 << 6) get a thread cache of at most 2·M buffers
// each, under 600 KiB a thread; larger classes trade single buffers.
constexpr std::uint32_t kThreadClasses = 7;
// The depot keeps up to 256 KiB of a class, and never fewer than the 64
// buffers a class could always park.
constexpr std::size_t kDepotBytes = 256 << 10;
constexpr std::size_t kDepotMinBuffers = 64;

std::size_t class_bytes(std::uint32_t cls) { return kMinClassBytes << cls; }

std::uint32_t class_for(std::size_t n) {
  std::size_t cap = kMinClassBytes;
  for (std::uint32_t cls = 0; cls < kNumClasses; ++cls, cap <<= 1) {
    if (n <= cap) return cls;
  }
  return kUnpooledClass;
}

// A magazine: free buffers chained through their own storage.
struct FreeNode {
  FreeNode* next;
};
struct Magazine {
  FreeNode* head = nullptr;
  std::uint32_t count = 0;

  void push(void* p) {
    head = new (p) FreeNode{head};
    count += 1;
  }
  void* pop() {
    count -= 1;
    return std::exchange(head, head->next);
  }
};

struct Depot {
  std::mutex mu;
  std::vector<Magazine> mags[kNumClasses];
  std::size_t held[kNumClasses] = {};

  Magazine take(std::uint32_t cls) {
    std::lock_guard<std::mutex> lk(mu);
    if (mags[cls].empty()) return {};
    const Magazine m = mags[cls].back();
    mags[cls].pop_back();
    held[cls] -= m.count;
    return m;
  }

  bool put(std::uint32_t cls, const Magazine& m) {
    const std::size_t cap =
        std::max(kDepotMinBuffers, kDepotBytes / class_bytes(cls));
    std::lock_guard<std::mutex> lk(mu);
    if (held[cls] + m.count > cap) return false;
    mags[cls].push_back(m);
    held[cls] += m.count;
    return true;
  }
};

// Function-local static: constructed on first use, never destroyed while a
// buffer could still be released (no static-destruction-order hazard), and
// each forked child gets its own copy-on-write instance.
Depot& depot() {
  static Depot* d = new Depot;  // leaked deliberately; reachable ⇒ not a leak
  return *d;
}

// Hands a magazine to the depot, or to the heap when the depot is full.
void retire(std::uint32_t cls, Magazine m) {
  if (m.count == 0 || depot().put(cls, m)) return;
  while (m.count != 0) ::operator delete(m.pop());
}

// The calling thread's magazines: `loaded` serves make and release, `spare`
// is empty or holds exactly M.  Trivially destructible, so the hot path
// reads it with no TLS guard; ExitFlush hands it back when the thread exits.
enum : std::uint8_t { kFresh, kLive, kDead };
struct ThreadCache {
  Magazine loaded[kThreadClasses];
  Magazine spare[kThreadClasses];
  std::uint8_t state = kFresh;
};
constinit thread_local ThreadCache tc;

struct ExitFlush {
  bool armed = false;
  ~ExitFlush() {
    for (std::uint32_t cls = 0; cls < kThreadClasses; ++cls) {
      retire(cls, std::exchange(tc.loaded[cls], {}));
      retire(cls, std::exchange(tc.spare[cls], {}));
    }
    tc.state = kDead;  // later buffers on this thread use the heap
  }
};
thread_local ExitFlush exit_flush;

// The thread's cache for `cls`, or nullptr: the class is too large, or the
// thread has already flushed.
ThreadCache* cache_for(std::uint32_t cls) {
  if (cls >= kThreadClasses || tc.state == kDead) return nullptr;
  if (tc.state == kFresh) {
    exit_flush.armed = true;  // first use registers the flush at thread exit
    tc.state = kLive;
  }
  return &tc;
}

}  // namespace

PayloadRef PayloadRef::make(std::size_t n) {
  const std::uint32_t cls = class_for(n);
  void* raw = nullptr;
  if (ThreadCache* c = cache_for(cls)) {
    Magazine& m = c->loaded[cls];
    if (m.count == 0) std::swap(m, c->spare[cls]);
    if (m.count == 0) m = depot().take(cls);
    if (m.count != 0) raw = m.pop();
  } else if (cls >= kThreadClasses && cls < kNumClasses) {
    raw = depot().take(cls).head;  // larger classes park single buffers
  }
  if (raw == nullptr) {
    raw = ::operator new(sizeof(Header) +
                         (cls != kUnpooledClass ? class_bytes(cls) : n));
  }
  auto* h = static_cast<Header*>(raw);
  h->refs.store(1, std::memory_order_relaxed);
  h->size_class = cls;
  h->len = n;
  return PayloadRef(h);
}

void PayloadRef::release(Header* h) {
  if (h == nullptr) return;
  if (h->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  const std::uint32_t cls = h->size_class;
  if (ThreadCache* c = cache_for(cls)) {
    Magazine& m = c->loaded[cls];
    if (m.count == kMagazine)
      retire(cls, std::exchange(c->spare[cls], std::exchange(m, {})));
    m.push(h);
    return;
  }
  if (cls >= kThreadClasses && cls < kNumClasses) {
    Magazine one;
    one.push(h);
    if (depot().put(cls, one)) return;
  }
  ::operator delete(h);
}

std::size_t payload_pool_cached() {
  std::lock_guard<std::mutex> lk(depot().mu);
  std::size_t n = 0;
  for (std::size_t h : depot().held) n += h;
  return n;
}

}  // namespace ace::am
