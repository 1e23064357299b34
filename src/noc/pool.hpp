// Data-oriented storage substrate for the per-cycle hot path
// (docs/PERFORMANCE.md): a contiguous ring replacing the per-unit
// std::deque queues, and a generation-checked struct-of-arrays arena that
// owns every VC-buffered flit of an input port.
//
// Design constraints (why these containers look the way they do):
//  * Snapshot compatibility — verify::StateCodec's io_seq walks containers
//    through size()/clear()/resize()/range-for, so Ring provides exactly
//    that surface and serializes with the same byte layout as the deques it
//    replaced.
//  * Census/golden compatibility — iteration is strictly FIFO order, so
//    collect_resident() and the per-cycle state digests see the identical
//    logical sequence the deque-based code produced.
//  * Deterministic growth — arenas and rings regrow by doubling at exact,
//    state-dependent points; no allocator decision depends on addresses or
//    time, so serial and sharded runs (and snapshot-restored runs) allocate
//    identically. Arenas must regrow rather than assert: mutation self-tests
//    (e.g. HTNOC_MUTATION_EXTRA_CREDIT) deliberately break the credit bounds
//    that normally cap occupancy, and the auditor — not an allocator crash —
//    is what must catch them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "common/types.hpp"
#include "noc/flit.hpp"

namespace htnoc::pool {

/// Contiguous power-of-two circular buffer with the deque surface the hot
/// path uses: FIFO push_back/pop_front plus (cold) ordered mid-erase for the
/// purge paths. Steady-state traffic allocates nothing — the backing store
/// grows by doubling and is then reused forever; a pop is one index bump
/// instead of a deque chunk bookkeeping step.
template <typename T>
class Ring {
 public:
  Ring() = default;

  [[nodiscard]] bool empty() const noexcept { return len_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return len_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }

  [[nodiscard]] T& front() {
    HTNOC_EXPECT(len_ > 0);
    return buf_[head_];
  }
  [[nodiscard]] const T& front() const {
    HTNOC_EXPECT(len_ > 0);
    return buf_[head_];
  }
  [[nodiscard]] T& back() { return (*this)[len_ - 1]; }
  [[nodiscard]] const T& back() const { return (*this)[len_ - 1]; }

  [[nodiscard]] T& operator[](std::size_t i) {
    HTNOC_EXPECT(i < len_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    HTNOC_EXPECT(i < len_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  void push_back(T v) {
    if (len_ == buf_.size()) grow(len_ + 1);
    buf_[(head_ + len_) & (buf_.size() - 1)] = std::move(v);
    ++len_;
  }
  [[nodiscard]] T& emplace_back() {
    push_back(T{});
    return back();
  }

  void pop_front() {
    HTNOC_EXPECT(len_ > 0);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --len_;
  }

  /// Ordered erase of logical index `i` (purge paths; cold). Shifts the
  /// shorter side so FIFO order is preserved.
  void erase_at(std::size_t i) {
    HTNOC_EXPECT(i < len_);
    if (i == 0) {
      pop_front();
      return;
    }
    for (std::size_t j = i; j + 1 < len_; ++j) {
      (*this)[j] = std::move((*this)[j + 1]);
    }
    --len_;
  }

  void clear() noexcept {
    head_ = 0;
    len_ = 0;
  }

  /// Snapshot-load surface (io_seq): value-initialized elements in FIFO
  /// order. Only ever called on a cleared ring.
  void resize(std::size_t n) {
    if (n > buf_.size()) grow(n);
    head_ = 0;
    len_ = n;
    for (std::size_t i = 0; i < n; ++i) buf_[i] = T{};
  }

  template <bool Const>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using Parent = std::conditional_t<Const, const Ring, Ring>;
    using reference = std::conditional_t<Const, const T&, T&>;
    using pointer = std::conditional_t<Const, const T*, T*>;

    Iter() = default;
    Iter(Parent* r, std::size_t i) : r_(r), i_(i) {}
    reference operator*() const { return (*r_)[i_]; }
    pointer operator->() const { return &(*r_)[i_]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    Iter operator++(int) {
      Iter t = *this;
      ++i_;
      return t;
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.i_ == b.i_;
    }
    friend bool operator!=(const Iter& a, const Iter& b) {
      return a.i_ != b.i_;
    }

   private:
    Parent* r_ = nullptr;
    std::size_t i_ = 0;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;
  [[nodiscard]] iterator begin() { return {this, 0}; }
  [[nodiscard]] iterator end() { return {this, len_}; }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, len_}; }

 private:
  void grow(std::size_t min_cap) {
    std::size_t cap = buf_.empty() ? 4 : buf_.size() * 2;
    while (cap < min_cap) cap *= 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < len_; ++i) next[i] = std::move((*this)[i]);
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;  // capacity is 0 or a power of two
  std::size_t head_ = 0;
  std::size_t len_ = 0;
};

/// Handle into a FlitArena: 24-bit slot index + 8-bit generation. A handle
/// outliving its flit (e.g. held across a purge) goes stale — the slot's
/// generation advanced on release — and every dereference checks for that,
/// so handle-reuse ABA against retransmission/purge races is a contract
/// violation instead of silent corruption.
struct FlitHandle {
  static constexpr std::uint32_t kNullBits = 0xFFFFFFFFu;
  static constexpr std::uint32_t kIndexBits = 24;
  static constexpr std::uint32_t kIndexMask = (1u << kIndexBits) - 1;

  std::uint32_t bits = kNullBits;

  [[nodiscard]] bool null() const noexcept { return bits == kNullBits; }
  [[nodiscard]] std::uint32_t index() const noexcept {
    return bits & kIndexMask;
  }
  [[nodiscard]] std::uint32_t generation() const noexcept {
    return bits >> kIndexBits;
  }
  [[nodiscard]] static FlitHandle make(std::uint32_t index,
                                       std::uint8_t gen) noexcept {
    return {(static_cast<std::uint32_t>(gen) << kIndexBits) |
            (index & kIndexMask)};
  }
  friend bool operator==(FlitHandle a, FlitHandle b) noexcept {
    return a.bits == b.bits;
  }
  friend bool operator!=(FlitHandle a, FlitHandle b) noexcept {
    return a.bits != b.bits;
  }
};

/// Struct-of-arrays arena owning every VC-buffered flit of one input port.
/// Lanes are parallel vectors indexed by handle slot: the fat Flit payload
/// sits apart from the cycle-hot arrival/next-link lanes, so walking a
/// packet stream touches small contiguous metadata until the flit body is
/// actually needed.
///
/// Per-VC occupancy is credit-bounded (buffer_depth per VC), so the arena's
/// steady-state footprint is vcs_per_port * buffer_depth slots; it regrows
/// deterministically (doubling) when a mutation self-test overdrives the
/// bound. The free list is LIFO and every mutation is an explicit data
/// operation, so allocation order is a pure function of simulation state.
class FlitArena {
 public:
  [[nodiscard]] FlitHandle alloc(const Flit& f, Cycle arrival) {
    if (free_.empty()) grow();
    const std::uint32_t i = free_.back();
    free_.pop_back();
    flit_[i] = f;
    arrival_[i] = arrival;
    next_[i] = FlitHandle{};
    live_[i] = 1;
    ++live_count_;
    return FlitHandle::make(i, gen_[i]);
  }

  /// Release a slot; its generation advances so stale handles are caught.
  void release(FlitHandle h) {
    const std::uint32_t i = checked(h);
    live_[i] = 0;
    ++gen_[i];  // wraps mod 256 by design
    --live_count_;
    free_.push_back(i);
  }

  [[nodiscard]] bool valid(FlitHandle h) const noexcept {
    return !h.null() && h.index() < flit_.size() && live_[h.index()] != 0 &&
           gen_[h.index()] == static_cast<std::uint8_t>(h.generation());
  }

  [[nodiscard]] Flit& flit(FlitHandle h) { return flit_[checked(h)]; }
  [[nodiscard]] const Flit& flit(FlitHandle h) const {
    return flit_[checked(h)];
  }
  [[nodiscard]] Cycle arrival(FlitHandle h) const {
    return arrival_[checked(h)];
  }
  [[nodiscard]] FlitHandle next(FlitHandle h) const {
    return next_[checked(h)];
  }
  void set_next(FlitHandle h, FlitHandle n) { next_[checked(h)] = n; }

  [[nodiscard]] std::size_t live() const noexcept { return live_count_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return flit_.size(); }

  /// Drop everything (snapshot restore rebuilds streams from scratch).
  /// Generations restart too: restored handles are freshly allocated in
  /// stream order, so no pre-reset handle may survive a reset.
  void reset() {
    flit_.clear();
    arrival_.clear();
    next_.clear();
    gen_.clear();
    live_.clear();
    free_.clear();
    live_count_ = 0;
  }

 private:
  [[nodiscard]] std::uint32_t checked(FlitHandle h) const {
    HTNOC_EXPECT(valid(h));
    return h.index();
  }

  void grow() {
    const std::size_t old = flit_.size();
    const std::size_t cap = old == 0 ? 16 : old * 2;
    HTNOC_EXPECT(cap <= (std::size_t{1} << FlitHandle::kIndexBits));
    flit_.resize(cap);
    arrival_.resize(cap, 0);
    next_.resize(cap);
    gen_.resize(cap, 0);
    live_.resize(cap, 0);
    // Reverse push so allocation pops slots in ascending index order.
    free_.reserve(cap);
    for (std::size_t i = cap; i > old; --i) {
      free_.push_back(static_cast<std::uint32_t>(i - 1));
    }
  }

  std::vector<Flit> flit_;           // fat payload lane
  std::vector<Cycle> arrival_;       // hot: effective arrival (BW stage gate)
  std::vector<FlitHandle> next_;     // hot: intrusive seq-ordered list link
  std::vector<std::uint8_t> gen_;    // slot generation (ABA guard)
  std::vector<std::uint8_t> live_;   // slot liveness (double-free guard)
  std::vector<std::uint32_t> free_;  // LIFO free list
  std::size_t live_count_ = 0;
};

}  // namespace htnoc::pool
