#ifndef FRAGDB_SIM_EVENT_FN_H_
#define FRAGDB_SIM_EVENT_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace fragdb {

template <typename Signature>
class InlineFn;

/// Move-only callable with small-buffer optimization, used for simulator
/// events (`EventFn`) and lock grants (`LockManager::GrantCallback`). The
/// protocol code schedules millions of short-lived callbacks per run;
/// `std::function` heap-allocates for anything beyond two captured words
/// that are trivially copyable, which made allocation the dominant cost of
/// the event queue. InlineFn stores captures up to kInlineSize bytes inline
/// and only falls back to the heap for oversized closures (the rare
/// multi-shared_ptr continuations of the move protocols, or closures that
/// capture a whole TxnSpec).
///
/// Semantics match the subset of std::function the simulator needs:
/// construct from any callable, move, invoke once or many times, destroy.
/// Copying is deliberately unsupported — events fire exactly once, and
/// move-only storage admits callables std::function would reject.
template <typename... Args>
class InlineFn<void(Args...)> {
 public:
  /// Sized so the hot closures fit: a network Dispatch capture (this +
  /// endpoints + timestamps + shared_ptr payload) is 40 bytes; the replica
  /// install's lock-grant callback and its continuation (scheduler,
  /// generation, shared quasi-transaction, install id and a two-word
  /// completion) are at most 56 (Scheduler::Install static_asserts this).
  static constexpr size_t kInlineSize = 80;

  /// True if a callable of type F is stored without a heap allocation.
  template <typename F>
  static constexpr bool kStoresInline =
      sizeof(std::decay_t<F>) <= kInlineSize &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t);

  InlineFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (kStoresInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      invoke_ = [](void* p, Args... args) {
        (*static_cast<D*>(p))(std::forward<Args>(args)...);
      };
      manage_ = [](Op op, void* self, void* dst) {
        D* d = static_cast<D*>(self);
        if (op == Op::kRelocate) ::new (dst) D(std::move(*d));
        d->~D();
      };
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      invoke_ = [](void* p, Args... args) {
        (**static_cast<D**>(p))(std::forward<Args>(args)...);
      };
      manage_ = [](Op op, void* self, void* dst) {
        D** d = static_cast<D**>(self);
        if (op == Op::kRelocate) {
          *reinterpret_cast<D**>(dst) = *d;
        } else {
          delete *d;
        }
      };
    }
  }

  InlineFn(InlineFn&& other) noexcept { MoveFrom(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { Reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  void operator()(Args... args) {
    invoke_(buf_, std::forward<Args>(args)...);
  }

  /// Destroys the held callable (releasing its captures) without firing.
  void Reset() {
    if (manage_ != nullptr) manage_(Op::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

 private:
  enum class Op { kRelocate, kDestroy };

  void MoveFrom(InlineFn& other) noexcept {
    if (other.manage_ != nullptr) {
      other.manage_(Op::kRelocate, other.buf_, buf_);
    }
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  void (*invoke_)(void*, Args...) = nullptr;
  void (*manage_)(Op, void* self, void* dst) = nullptr;
};

/// A simulator event: fires once, takes nothing.
using EventFn = InlineFn<void()>;

}  // namespace fragdb

#endif  // FRAGDB_SIM_EVENT_FN_H_
