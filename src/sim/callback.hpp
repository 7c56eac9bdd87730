#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace h2sim::sim {

/// Move-only callable with fixed inline storage, the event loop's callback
/// type. Callables up to kInlineBytes (the per-packet lambdas the simulator
/// schedules: a `this` pointer plus a Packet by value) live inside the event
/// slab slot and never touch the heap; larger callables fall back to a heap
/// box, which the loop counts so benchmarks can prove the steady-state path
/// stays allocation-free.
///
/// Unlike std::function this type is move-only (no copyability requirement on
/// the callable, so lambdas may capture move-only state) and invocation is
/// one indirect call through a per-type ops table.
class InlineCallback {
 public:
  static constexpr std::size_t kInlineBytes = 120;

  InlineCallback() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineCallback> &&
             std::is_invocable_v<std::decay_t<F>&>)
  InlineCallback(F&& f) {  // NOLINT(bugprone-forwarding-reference-overload)
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { move_from(other); }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  void reset() {
    if (ops_) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// True when the wrapped callable was too large for the inline buffer and
  /// lives in a heap box (one allocation the loop's AllocStats records).
  bool on_heap() const { return ops_ != nullptr && ops_->heap; }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-construct into dst's storage from src's storage, destroying src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
    bool heap;
  };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*static_cast<D*>(s))(); },
      [](void* dst, void* src) {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* s) { static_cast<D*>(s)->~D(); },
      false,
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**static_cast<D**>(s))(); },
      [](void* dst, void* src) { *static_cast<D**>(dst) = *static_cast<D**>(src); },
      [](void* s) { delete *static_cast<D**>(s); },
      true,
  };

  void move_from(InlineCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace h2sim::sim
