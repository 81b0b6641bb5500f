// PayloadRef: the zero-copy bulk-payload buffer of the AM delivery engine.
//
// A Message's payload used to be a std::vector<std::byte>, which made every
// hot delivery pay a heap allocation and every fan-out (update pushes,
// broadcasts) pay one full copy per destination.  PayloadRef replaces it
// with a handle to an intrusively refcounted buffer drawn from a pooled
// arena:
//
//   * copying a PayloadRef bumps a refcount — an update protocol pushing one
//     snapshot to N sharers shares a single buffer N ways;
//   * enqueue -> poll -> dispatch -> handler moves the 8-byte handle, never
//     the payload bytes (thread backend), and the proc transport
//     reassembles inbound frames directly into pooled buffers;
//   * buffers of up to 4 KiB come from per-thread magazines: a free list
//     per size class that make and the last release use with no lock.  A
//     thread trades whole magazines (M buffers) with one shared depot under
//     its mutex, and hands them all back when it exits.  Larger classes
//     trade single buffers with the depot.
//
// A buffer returns to the cache of whichever thread drops its last
// reference, so a sender-allocates / receiver-releases pair moves buffers
// through the depot one magazine at a time.
//
// Ownership rules (see DESIGN.md, "Delivery hot path"): a handler may read
// its message's payload freely, but must treat the bytes as immutable —
// broadcasts and update pushes alias one buffer across destinations on the
// thread backend.  Handlers that keep the data install it into a region
// (copy) or move the *handle*; both are safe.
//
// The implicit conversions from std::vector<std::byte> keep the historical
// call sites compiling: they copy once into a pooled buffer, which is what
// those sites did anyway when the vector crossed into the Message.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace ace::am {

class PayloadRef {
 public:
  PayloadRef() = default;

  PayloadRef(const PayloadRef& o) : h_(o.h_) { retain(h_); }
  PayloadRef(PayloadRef&& o) noexcept : h_(o.h_) { o.h_ = nullptr; }
  PayloadRef& operator=(const PayloadRef& o) {
    if (this != &o) {
      retain(o.h_);
      release(h_);
      h_ = o.h_;
    }
    return *this;
  }
  PayloadRef& operator=(PayloadRef&& o) noexcept {
    if (this != &o) {
      release(h_);
      h_ = o.h_;
      o.h_ = nullptr;
    }
    return *this;
  }
  ~PayloadRef() { release(h_); }

  // Legacy-call-site conversions: one pooled copy (what handing a vector to
  // a Message cost before, minus the allocator round trip).
  PayloadRef(const std::vector<std::byte>& v)  // NOLINT(runtime/explicit)
      : PayloadRef(copy_of(v.data(), v.size())) {}
  PayloadRef(std::vector<std::byte>&& v)  // NOLINT(runtime/explicit)
      : PayloadRef(copy_of(v.data(), v.size())) {}

  /// A fresh pooled buffer of `n` uninitialized bytes (refcount 1).
  static PayloadRef make(std::size_t n);
  /// A fresh pooled buffer holding a copy of [p, p+n).
  static PayloadRef copy_of(const void* p, std::size_t n) {
    PayloadRef out = make(n);
    if (n != 0) std::memcpy(out.data(), p, n);
    return out;
  }

  std::size_t size() const { return h_ != nullptr ? h_->len : 0; }
  bool empty() const { return size() == 0; }
  std::byte* data() { return h_ != nullptr ? bytes(h_) : nullptr; }
  const std::byte* data() const { return h_ != nullptr ? bytes(h_) : nullptr; }
  const std::byte* begin() const { return data(); }
  const std::byte* end() const { return data() + size(); }
  std::byte front() const { return data()[0]; }
  std::byte back() const { return data()[size() - 1]; }

  /// Drop this handle's reference (buffer returns to the pool when it was
  /// the last); the handle becomes empty.
  void clear() {
    release(h_);
    h_ = nullptr;
  }

 private:
  struct Header {
    std::atomic<std::uint32_t> refs;
    std::uint32_t size_class;  ///< pool class index; kUnpooled = direct heap
    std::size_t len;
  };

  static std::byte* bytes(Header* h) {
    return reinterpret_cast<std::byte*>(h + 1);
  }
  static void retain(Header* h) {
    if (h != nullptr) h->refs.fetch_add(1, std::memory_order_relaxed);
  }
  static void release(Header* h);  // payload.cpp: cache return / free

  explicit PayloadRef(Header* h) : h_(h) {}
  Header* h_ = nullptr;
};

/// Pool introspection for tests: buffers parked in the depot (a thread's own
/// magazines join it when the thread exits).
std::size_t payload_pool_cached();

}  // namespace ace::am
