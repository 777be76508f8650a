// Move-only type-erased closures with a small-buffer fast path.
//
// The DES kernel schedules millions of short-lived closures per experiment.
// std::function is the wrong vehicle for that hot path: its copyability
// requirement forbids move-only captures, and its small-buffer window (16
// bytes on libstdc++) forces a heap allocation for nearly every capture
// list in this codebase. SmallFunction stores closures up to kInlineBytes
// directly inline — the common case allocates nothing — and falls back to a
// single heap cell only for oversized captures. SimCallback, the event
// type, is SmallFunction<void()>; the per-request completions
// (DmaCallback, ResponseCallback, ...) reuse the template with their own
// signatures. Request state rides in pooled records, so a stage closure
// captures a component and a record pointer and always stays inline.
//
// A closure handed to a stage that may end without running it (a burst lost
// on a lossy link, a request eaten by a crashed server) can say what to
// release in that case: build it with WithDiscard(run, drop) and the stage
// calls Discard() instead of invoking it. Destruction alone never releases
// anything — pending events are destroyed at teardown, after the
// components that own per-request records (DESIGN.md §8).
//
// Thread-safety: a SmallFunction is a plain value — no shared state, no
// internal synchronization. Cross-domain closures handed to
// ParallelSimulator::Post are moved between threads, which is safe because
// ownership transfers whole at the round barrier (src/sim/domain.h); the
// captured pointers themselves remain domain-confined by that contract.
#ifndef SRC_SIM_CALLBACK_H_
#define SRC_SIM_CALLBACK_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace snicsim {

namespace callback_internal {
// Heap fallbacks taken on this thread (see SmallFunctionBoxedCount).
inline thread_local uint64_t boxed = 0;

template <typename Fn, typename = void>
struct HasDiscard : std::false_type {};
template <typename Fn>
struct HasDiscard<Fn, std::void_t<decltype(std::declval<Fn&>().Discard())>>
    : std::true_type {};
}  // namespace callback_internal

// SmallFunctions constructed on this thread whose closure did not fit the
// inline buffer. Only the heap-fallback branch touches the counter, so the
// inline fast path pays nothing for it.
inline uint64_t SmallFunctionBoxedCount() { return callback_internal::boxed; }

// A closure with a second entry point: `run` is the normal continuation,
// `drop` runs instead when the holder ends it with SmallFunction::Discard.
template <typename Run, typename Drop>
struct Discardable {
  Run run;
  Drop drop;

  template <typename... A>
  auto operator()(A&&... args) -> decltype(run(std::forward<A>(args)...)) {
    return run(std::forward<A>(args)...);
  }
  void Discard() { drop(); }
};

template <typename Run, typename Drop>
Discardable<Run, Drop> WithDiscard(Run run, Drop drop) {
  return {std::move(run), std::move(drop)};
}

template <typename Sig>
class SmallFunction;  // only the R(Args...) specialization exists

template <typename R, typename... Args>
class SmallFunction<R(Args...)> {
 public:
  // Covers every capture list on the event hot path (a handful of pointers
  // plus a few values); bigger closures still work via the heap fallback.
  static constexpr size_t kInlineBytes = 64;

  SmallFunction() = default;
  SmallFunction(std::nullptr_t) {}  // NOLINT: drop-in for std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFunction(F&& f) {  // NOLINT: implicit, drop-in for std::function
    Construct(std::forward<F>(f));
  }

  SmallFunction(SmallFunction&& o) noexcept { MoveFrom(std::move(o)); }
  SmallFunction& operator=(SmallFunction&& o) noexcept {
    if (this != &o) {
      Reset();
      MoveFrom(std::move(o));
    }
    return *this;
  }
  SmallFunction& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }
  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;
  ~SmallFunction() { Reset(); }

  // Replaces the target with `f`, built straight into this storage: a
  // closure is constructed in place and a SmallFunction is moved in once,
  // so a closure forwarded through any number of layers is moved at most
  // once on its way here.
  template <typename F>
  void Emplace(F&& f) {
    Reset();
    if constexpr (std::is_same_v<std::decay_t<F>, SmallFunction>) {
      static_assert(!std::is_lvalue_reference_v<F>, "SmallFunction is move-only");
      MoveFrom(std::move(f));
    } else {
      Construct(std::forward<F>(f));
    }
  }

  explicit operator bool() const { return vtable_ != nullptr; }
  friend bool operator==(const SmallFunction& f, std::nullptr_t) {
    return f.vtable_ == nullptr;
  }

  // Const like std::function's operator(): closures are routinely invoked
  // through const captures. The target lives in mutable storage.
  R operator()(Args... args) const {
    return vtable_->invoke(storage_, std::forward<Args>(args)...);
  }

  // Invokes the target and leaves *this empty. The dispatch fast path: one
  // indirect call does the work of move-out + invoke + destroy.
  R CallOnce(Args... args) {
    const VTable* vt = vtable_;
    vtable_ = nullptr;
    return vt->invoke_destroy(storage_, std::forward<Args>(args)...);
  }

  // Ends the target without invoking it and leaves *this empty: a target
  // built with WithDiscard runs its drop half first, any other target is
  // just destroyed. No-op when empty.
  void Discard() {
    if (vtable_ != nullptr) {
      const VTable* vt = vtable_;
      vtable_ = nullptr;
      vt->discard(storage_);
    }
  }

 private:
  struct VTable {
    R (*invoke)(void* self, Args&&... args);
    // Invokes the target, then destroys it (see CallOnce).
    R (*invoke_destroy)(void* self, Args&&... args);
    // Move-constructs *dst from *src and destroys *src. nullptr marks a
    // trivially relocatable representation: a plain memcpy of the storage
    // suffices, no indirect call needed.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* self);
    // Runs the target's Discard() when it has one, then destroys it.
    void (*discard)(void* self);
  };

  template <typename Fn>
  struct Inline {
    static Fn* Get(void* p) { return std::launder(reinterpret_cast<Fn*>(p)); }
    static R Invoke(void* self, Args&&... args) {
      return (*Get(self))(std::forward<Args>(args)...);
    }
    static R InvokeDestroy(void* self, Args&&... args) {
      // Scope guard, not a trailing dtor call: the caller already cleared
      // its vtable pointer, so if the target throws, this is the only place
      // left that can release the capture.
      struct Guard {
        Fn* fn;
        ~Guard() { fn->~Fn(); }
      } guard{Get(self)};
      return (*guard.fn)(std::forward<Args>(args)...);
    }
    static void Relocate(void* dst, void* src) {
      ::new (dst) Fn(std::move(*Get(src)));
      Get(src)->~Fn();
    }
    static void Destroy(void* self) { Get(self)->~Fn(); }
    static void Discard(void* self) {
      if constexpr (callback_internal::HasDiscard<Fn>::value) {
        Get(self)->Discard();
      }
      Destroy(self);
    }
    static constexpr VTable kVTable{
        &Invoke, &InvokeDestroy,
        std::is_trivially_copyable_v<Fn> ? nullptr : &Relocate, &Destroy, &Discard};
  };

  template <typename Fn>
  struct Boxed {
    static Fn* Get(void* p) { return *std::launder(reinterpret_cast<Fn**>(p)); }
    static R Invoke(void* self, Args&&... args) {
      return (*Get(self))(std::forward<Args>(args)...);
    }
    static R InvokeDestroy(void* self, Args&&... args) {
      // Scope guard so a throwing target still frees the heap cell (see the
      // Inline counterpart).
      struct Guard {
        Fn* fn;
        ~Guard() { delete fn; }
      } guard{Get(self)};
      return (*guard.fn)(std::forward<Args>(args)...);
    }
    static void Destroy(void* self) { delete Get(self); }
    static void Discard(void* self) {
      if constexpr (callback_internal::HasDiscard<Fn>::value) {
        Get(self)->Discard();
      }
      Destroy(self);
    }
    // Relocating a box is copying one pointer — always trivial.
    static constexpr VTable kVTable{&Invoke, &InvokeDestroy, nullptr, &Destroy, &Discard};
  };

  template <typename F>
  void Construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      vtable_ = &Inline<Fn>::kVTable;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      vtable_ = &Boxed<Fn>::kVTable;
      ++callback_internal::boxed;
    }
  }

  void MoveFrom(SmallFunction&& o) noexcept {
    vtable_ = o.vtable_;
    if (vtable_ != nullptr) {
      if (vtable_->relocate == nullptr) {
        // Fixed-size copy: compiles to a few vector moves, no indirect call.
        // Bytes past the capture are indeterminate and copied on purpose.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
        std::memcpy(storage_, o.storage_, kInlineBytes);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
      } else {
        vtable_->relocate(storage_, o.storage_);
      }
      o.vtable_ = nullptr;
    }
  }
  void Reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) mutable unsigned char storage_[kInlineBytes];
  const VTable* vtable_ = nullptr;
};

// The simulator's event closure type.
using SimCallback = SmallFunction<void()>;

// Whether a forwarded callback argument holds something to run: false for
// nullptr and for an empty SmallFunction, true for any closure. Layers that
// take an optional completion by forwarding reference use nullptr as
// "none".
template <typename F>
constexpr bool HasTarget(const F& f) {
  if constexpr (std::is_same_v<F, std::nullptr_t>) {
    return false;
  } else if constexpr (std::is_constructible_v<bool, const F&>) {
    return static_cast<bool>(f);
  } else {
    return true;
  }
}

// Ends a forwarded callback that will never run, the way
// SmallFunction::Discard does: a closure built with WithDiscard (or a
// SmallFunction holding one) runs its drop half; anything else is left to
// its owner's destructor.
template <typename F>
void DiscardTarget(F& f) {
  if constexpr (callback_internal::HasDiscard<F>::value) {
    f.Discard();
  }
}

}  // namespace snicsim

#endif  // SRC_SIM_CALLBACK_H_
