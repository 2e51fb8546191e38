// Time-ordered event queue for the discrete-event simulator.
//
// Ties on timestamp are broken by insertion sequence number, which makes the
// processing order a total order independent of heap implementation details —
// a requirement for bit-reproducible simulations. The queue folds the
// (time, seq) of every event it hands out into a running schedule digest, so
// tests/determinism_test.cpp can pin the whole processing order with no
// instrumentation switched on.
//
// Hot-path design: the simulator pushes and pops millions of closures per
// host-second, so the steady state must be allocation-free.
//   - Action is a move-only small-buffer callable: captures up to
//     kInlineBytes live inline; larger captures go to a size-classed block
//     pool (EventPool) that recycles freed blocks instead of returning them
//     to the heap.
//   - Entries live in recycled slots; the priority queue is a 4-ary min-heap
//     over slot *indices*, so sift operations swap 4-byte ids and no Action
//     ever moves through the heap.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/sched.hpp"
#include "sim/time.hpp"

namespace sp::sim {

/// Size-classed recycling allocator for Action captures that exceed the
/// inline buffer. Freed blocks are kept on intrusive free lists and reused;
/// captures beyond the largest class fall back to plain new/delete (counted).
class EventPool {
 public:
  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  ~EventPool() {
    for (std::size_t c = 0; c < kClasses.size(); ++c) {
      void* p = free_[c];
      while (p != nullptr) {
        void* next = *static_cast<void**>(p);
        ::operator delete(p, std::align_val_t{kBlockAlign});
        p = next;
      }
    }
  }

  [[nodiscard]] void* allocate(std::size_t n) {
    const int c = class_of(n);
    if (c < 0) {
      ++fallback_allocs_;
      return ::operator new(n, std::align_val_t{kBlockAlign});
    }
    if (free_[static_cast<std::size_t>(c)] != nullptr) {
      ++pool_hits_;
      void* p = free_[static_cast<std::size_t>(c)];
      free_[static_cast<std::size_t>(c)] = *static_cast<void**>(p);
      return p;
    }
    ++pool_misses_;
    return ::operator new(kClasses[static_cast<std::size_t>(c)], std::align_val_t{kBlockAlign});
  }

  void deallocate(void* p, std::size_t n) noexcept {
    const int c = class_of(n);
    if (c < 0) {
      ::operator delete(p, std::align_val_t{kBlockAlign});
      return;
    }
    *static_cast<void**>(p) = free_[static_cast<std::size_t>(c)];
    free_[static_cast<std::size_t>(c)] = p;
  }

  /// Oversize-capture allocations recycled from a free list.
  [[nodiscard]] std::uint64_t pool_hits() const noexcept { return pool_hits_; }
  /// Oversize-capture allocations that had to grow the pool.
  [[nodiscard]] std::uint64_t pool_misses() const noexcept { return pool_misses_; }
  /// Captures larger than the biggest size class (plain heap alloc).
  [[nodiscard]] std::uint64_t fallback_allocs() const noexcept { return fallback_allocs_; }

 private:
  static constexpr std::array<std::size_t, 5> kClasses = {64, 128, 256, 512, 1024};
  static constexpr std::size_t kBlockAlign = 16;

  [[nodiscard]] static int class_of(std::size_t n) noexcept {
    for (std::size_t c = 0; c < kClasses.size(); ++c) {
      if (n <= kClasses[c]) return static_cast<int>(c);
    }
    return -1;
  }

  std::array<void*, kClasses.size()> free_ = {};
  std::uint64_t pool_hits_ = 0;
  std::uint64_t pool_misses_ = 0;
  std::uint64_t fallback_allocs_ = 0;
};

class EventQueue {
 public:
  /// Move-only callable with small-buffer optimization. Captures up to
  /// kInlineBytes (and nothrow-movable) are stored inline; anything larger
  /// lives in a pool-recycled block.
  class Action {
   public:
    static constexpr std::size_t kInlineBytes = 48;
    static constexpr std::size_t kInlineAlign = 16;

    Action() noexcept = default;

    template <typename F, typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Action>>>
    Action(F&& f, EventPool& pool) {
      using T = std::decay_t<F>;
      if constexpr (sizeof(T) <= kInlineBytes && alignof(T) <= kInlineAlign &&
                    std::is_nothrow_move_constructible_v<T>) {
        ::new (static_cast<void*>(inline_)) T(std::forward<F>(f));
        ops_ = ops_for<T>();
      } else {
        heap_ = pool.allocate(sizeof(T));
        ::new (heap_) T(std::forward<F>(f));
        ops_ = ops_for<T>();
        pool_ = &pool;
      }
    }

    Action(Action&& o) noexcept : ops_(o.ops_), pool_(o.pool_) {
      if (ops_ == nullptr) return;
      if (pool_ != nullptr) {
        heap_ = o.heap_;
      } else {
        ops_->relocate(inline_, o.inline_);
      }
      o.ops_ = nullptr;
      o.pool_ = nullptr;
    }

    Action& operator=(Action&& o) noexcept {
      if (this != &o) {
        reset();
        ops_ = o.ops_;
        pool_ = o.pool_;
        if (ops_ != nullptr) {
          if (pool_ != nullptr) {
            heap_ = o.heap_;
          } else {
            ops_->relocate(inline_, o.inline_);
          }
        }
        o.ops_ = nullptr;
        o.pool_ = nullptr;
      }
      return *this;
    }

    Action(const Action&) = delete;
    Action& operator=(const Action&) = delete;

    ~Action() { reset(); }

    void operator()() {
      assert(ops_ != nullptr && "invoking an empty Action");
      ops_->invoke(pool_ != nullptr ? heap_ : static_cast<void*>(inline_));
    }

    [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

   private:
    struct Ops {
      void (*invoke)(void*);
      void (*destroy)(void*);
      /// Move-construct at dst from src, then destroy src (inline storage).
      void (*relocate)(void* dst, void* src);
      std::size_t size;
    };

    template <typename T>
    [[nodiscard]] static const Ops* ops_for() noexcept {
      static constexpr Ops ops{
          [](void* p) { (*static_cast<T*>(p))(); },
          [](void* p) { static_cast<T*>(p)->~T(); },
          [](void* dst, void* src) {
            T* s = static_cast<T*>(src);
            ::new (dst) T(std::move(*s));
            s->~T();
          },
          sizeof(T)};
      return &ops;
    }

    void reset() noexcept {
      if (ops_ == nullptr) return;
      if (pool_ != nullptr) {
        ops_->destroy(heap_);
        pool_->deallocate(heap_, ops_->size);
      } else {
        ops_->destroy(inline_);
      }
      ops_ = nullptr;
      pool_ = nullptr;
    }

    const Ops* ops_ = nullptr;
    EventPool* pool_ = nullptr;  ///< Non-null iff the capture lives in heap_.
    union {
      alignas(kInlineAlign) std::byte inline_[kInlineBytes];
      void* heap_;
    };
  };

  /// Enqueue a callable to run at absolute time `at` (opaque schedule class).
  template <typename F>
  void push(TimeNs at, F&& f) {
    push(at, kSchedOpaque, std::forward<F>(f));
  }

  /// Enqueue a callable with an explicit schedule-class key (see sched.hpp).
  /// The key never changes *when* the event runs under normal operation; it
  /// only informs an installed ScheduleController's independence relation.
  template <typename F>
  void push(TimeNs at, SchedKey key, F&& f) {
    std::uint32_t id;
    if (free_head_ != kNone) {
      id = free_head_;
      Slot& s = slots_[id];
      free_head_ = s.next_free;
      s.at = at;
      s.seq = next_seq_++;
      s.key = key;
      s.action = Action(std::forward<F>(f), pool_);
    } else {
      id = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back(at, next_seq_++, key, Action(std::forward<F>(f), pool_));
    }
    heap_.push_back(id);
    sift_up(heap_.size() - 1);
    ++pushed_;
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Timestamp of the earliest pending event. Precondition: !empty().
  [[nodiscard]] TimeNs next_time() const { return slots_[heap_.front()].at; }

  /// Remove and return the earliest pending event. Precondition: !empty().
  /// With a ScheduleController installed, the controller picks among all
  /// events ready within the candidate window instead (see set_controller).
  [[nodiscard]] std::pair<TimeNs, Action> pop() {
    if (controller_ != nullptr) return pop_controlled();
    const std::uint32_t id = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return take(id);
  }

  /// Perturb the tie-break among same-timestamp events: with a non-zero salt,
  /// ties are ordered by a seeded bijective mix of the insertion sequence
  /// instead of the sequence itself. The mix is a permutation of the 64-bit
  /// sequence space, so the order stays strict and total (deterministic per
  /// salt); salt 0 restores exact insertion order, which the golden-digest
  /// tests pin. Must be set while the queue is empty: changing the comparator
  /// under a populated heap would break the heap invariant.
  void set_tie_break_salt(std::uint64_t salt) noexcept {
    assert(heap_.empty() && "tie-break salt must be set before events are queued");
    tie_salt_ = salt;
  }
  [[nodiscard]] std::uint64_t tie_break_salt() const noexcept { return tie_salt_; }

  /// Install a ScheduleController: every pop gathers the events ready within
  /// `window_ns` of the minimum pending timestamp (in canonical (at, seq)
  /// order, unaffected by the tie-break salt) and, when there are two or
  /// more, asks the controller which to run. Must be installed while the
  /// queue is empty. Null restores normal heap-order pops. The controlled pop
  /// is O(pending) per event — systematic exploration only, never the
  /// simulation hot path (which keeps the branch-free controller==null test).
  void set_controller(ScheduleController* c, TimeNs window_ns) noexcept {
    assert(heap_.empty() && "controller must be installed before events are queued");
    controller_ = c;
    window_ = window_ns < 0 ? 0 : window_ns;
  }
  [[nodiscard]] ScheduleController* controller() const noexcept { return controller_; }

  // --- host-side perf counters ---
  [[nodiscard]] std::uint64_t pushed() const noexcept { return pushed_; }
  [[nodiscard]] std::uint64_t popped() const noexcept { return popped_; }
  /// FNV-1a fold of (at, seq) over every event popped so far, in run order.
  /// The SchedKey stays out: outside controlled runs it never changes when
  /// an event runs (sched.hpp), so the digest pins the schedule alone.
  [[nodiscard]] std::uint64_t schedule_digest() const noexcept { return digest_; }
  [[nodiscard]] const EventPool& pool() const noexcept { return pool_; }
  /// Actions whose captures fit the inline buffer (no allocation at all).
  [[nodiscard]] std::uint64_t inline_actions() const noexcept {
    return pushed_ - pool_.pool_hits() - pool_.pool_misses() - pool_.fallback_allocs();
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Slot {
    Slot(TimeNs t, std::uint64_t s, SchedKey k, Action a)
        : at(t), seq(s), key(k), action(std::move(a)) {}
    TimeNs at;
    std::uint64_t seq;
    SchedKey key;
    Action action;
    std::uint32_t next_free = kNone;
  };

  static constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

  /// Recycle slot `id` and hand its payload out; folds it into the schedule
  /// digest and notifies the controller.
  [[nodiscard]] std::pair<TimeNs, Action> take(std::uint32_t id) {
    Slot& s = slots_[id];
    std::pair<TimeNs, Action> out{s.at, std::move(s.action)};
    digest_ = (digest_ ^ static_cast<std::uint64_t>(s.at)) * kFnvPrime;
    digest_ = (digest_ ^ s.seq) * kFnvPrime;
    if (controller_ != nullptr) {
      controller_->on_execute(ScheduleController::Choice{s.at, s.seq, s.key});
    }
    s.next_free = free_head_;
    free_head_ = id;
    ++popped_;
    return out;
  }

  [[nodiscard]] std::pair<TimeNs, Action> pop_controlled() {
    // Candidates: everything ready within the window of the minimum pending
    // timestamp, in canonical (at, seq) order. The heap front holds the
    // minimum time regardless of the tie-break salt (time dominates the
    // comparator), so min_at is exact.
    const TimeNs min_at = slots_[heap_.front()].at;
    const TimeNs limit = min_at + window_;
    cand_ids_.clear();
    for (std::uint32_t id : heap_) {
      if (slots_[id].at <= limit) cand_ids_.push_back(id);
    }
    std::sort(cand_ids_.begin(), cand_ids_.end(), [this](std::uint32_t a, std::uint32_t b) {
      const Slot& sa = slots_[a];
      const Slot& sb = slots_[b];
      if (sa.at != sb.at) return sa.at < sb.at;
      return sa.seq < sb.seq;
    });
    std::uint32_t chosen = cand_ids_.front();
    if (cand_ids_.size() >= 2) {
      cands_.clear();
      for (std::uint32_t id : cand_ids_) {
        const Slot& s = slots_[id];
        cands_.push_back(ScheduleController::Choice{s.at, s.seq, s.key});
      }
      const std::size_t idx = controller_->choose(cands_);
      assert(idx < cand_ids_.size() && "controller chose past the candidate list");
      chosen = cand_ids_[idx < cand_ids_.size() ? idx : 0];
    }
    // Remove `chosen` from an arbitrary heap position.
    std::size_t pos = 0;
    while (heap_[pos] != chosen) ++pos;
    heap_[pos] = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size()) {
      const std::uint32_t moved = heap_[pos];
      sift_up(pos);
      if (pos < heap_.size() && heap_[pos] == moved) sift_down(pos);
    }
    return take(chosen);
  }

  /// Bijective tie key: identity when unperturbed, otherwise the SplitMix64
  /// finalizer over seq ^ salt. Each step is invertible, so distinct
  /// sequences map to distinct keys and the tie-break stays a total order.
  [[nodiscard]] std::uint64_t tie_key(std::uint64_t seq) const noexcept {
    if (tie_salt_ == 0) return seq;
    std::uint64_t x = seq ^ tie_salt_;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  /// Strict (time, tie_key(seq)) "earlier-than" over slot ids: a total order,
  /// since sequence numbers are unique and the tie key is bijective.
  [[nodiscard]] bool earlier(std::uint32_t a, std::uint32_t b) const noexcept {
    const Slot& sa = slots_[a];
    const Slot& sb = slots_[b];
    if (sa.at != sb.at) return sa.at < sb.at;
    return tie_key(sa.seq) < tie_key(sb.seq);
  }

  void sift_up(std::size_t i) noexcept {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!earlier(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) noexcept {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], heap_[i])) break;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  // pool_ must outlive slots_: Slot actions return their overflow blocks to
  // the pool on destruction (members destroy in reverse declaration order).
  EventPool pool_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> heap_;
  ScheduleController* controller_ = nullptr;
  TimeNs window_ = 0;
  /// Scratch for pop_controlled (avoids per-pop allocation).
  std::vector<std::uint32_t> cand_ids_;
  std::vector<ScheduleController::Choice> cands_;
  std::uint32_t free_head_ = kNone;
  std::uint64_t tie_salt_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t pushed_ = 0;
  std::uint64_t popped_ = 0;
  std::uint64_t digest_ = 14695981039346656037ULL;  // FNV-1a offset basis
};

}  // namespace sp::sim
