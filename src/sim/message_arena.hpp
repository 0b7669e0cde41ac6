#pragma once
// Refcounted slab of Message payloads for the delivery hot path.
//
// The unbatched network copies every Message into its delivery closure, so a
// broadcast to n receivers round-trips the heap n times (the sigs vector plus
// std::function storage per copy). The arena keeps one copy per logical
// payload in a recycled slot; deliveries share it through lightweight Refs.
// Recycled slots keep their Message object alive, so a reused slot's sigs
// vector keeps its capacity — steady-state message traffic allocates nothing.
//
// Slots are generation-tagged like EventQueue's: a Ref names (slot, gen) and
// recycling bumps the generation, so a stale Ref (held past its slot's
// reuse) fails its deref check instead of silently reading another payload.
// Refs share ownership of the slab state, so a Ref captured in a queued
// event closure stays valid even if it outlives the arena handle (the engine
// tears down after the network in every world).
//
// Single-threaded by design, like the engine it feeds: one arena per world,
// refcounts are plain integers.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "sim/message.hpp"
#include "util/check.hpp"

namespace crusader::sim {

class MessageArena {
  struct Slot {
    Message msg;
    std::uint32_t refs = 0;
    std::uint32_t gen = 0;
  };
  struct State {
    // deque: slot addresses stay stable while a delivery holds a reference
    // and the callee's sends grow the slab.
    std::deque<Slot> slots;
    std::vector<std::uint32_t> free;
    std::size_t live = 0;
    std::uint64_t acquired = 0;
  };

 public:
  /// Shared handle to one arena payload. Copying bumps the slot refcount;
  /// the last Ref recycles the slot. Cheap enough to capture by value in
  /// event closures.
  class Ref {
   public:
    Ref() = default;
    Ref(const Ref& other) : state_(other.state_), slot_(other.slot_), gen_(other.gen_) {
      if (state_) ++state_->slots[slot_].refs;
    }
    Ref(Ref&& other) noexcept
        : state_(std::move(other.state_)), slot_(other.slot_), gen_(other.gen_) {}
    Ref& operator=(const Ref& other) {
      if (this != &other) {
        Ref copy(other);
        *this = std::move(copy);
      }
      return *this;
    }
    Ref& operator=(Ref&& other) noexcept {
      if (this != &other) {
        release();
        state_ = std::move(other.state_);
        slot_ = other.slot_;
        gen_ = other.gen_;
      }
      return *this;
    }
    ~Ref() { release(); }

    [[nodiscard]] explicit operator bool() const noexcept {
      return state_ != nullptr;
    }

    [[nodiscard]] const Message& operator*() const {
      CS_CHECK_MSG(state_, "deref of an empty MessageArena::Ref");
      const Slot& s = state_->slots[slot_];
      CS_CHECK_MSG(s.gen == gen_,
                   "stale MessageArena::Ref: slot " << slot_
                                                    << " was recycled");
      return s.msg;
    }
    [[nodiscard]] const Message* operator->() const { return &**this; }

    /// The slot this payload occupies. Stable for as long as this Ref (or
    /// any copy) lives, so callers may key per-payload side tables by it.
    [[nodiscard]] std::uint32_t slot() const noexcept { return slot_; }

   private:
    friend class MessageArena;
    Ref(std::shared_ptr<State> state, std::uint32_t slot, std::uint32_t gen)
        : state_(std::move(state)), slot_(slot), gen_(gen) {}

    void release() noexcept {
      if (!state_) return;
      Slot& s = state_->slots[slot_];
      if (s.gen == gen_ && --s.refs == 0) {
        ++s.gen;  // invalidate any stale handles to the old payload
        state_->free.push_back(slot_);
        --state_->live;
      }
      state_.reset();
    }

    std::shared_ptr<State> state_;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
  };

  MessageArena() : state_(std::make_shared<State>()) {}

  /// Copy `m` into a recycled slot (reusing its sigs capacity) and return a
  /// shared handle to it.
  [[nodiscard]] Ref acquire(const Message& m) {
    std::uint32_t slot;
    if (!state_->free.empty()) {
      slot = state_->free.back();
      state_->free.pop_back();
      state_->slots[slot].msg = m;  // copy-assign: reuses heap capacity
    } else {
      slot = static_cast<std::uint32_t>(state_->slots.size());
      state_->slots.push_back(Slot{m, 0, 0});
    }
    Slot& s = state_->slots[slot];
    s.refs = 1;
    ++state_->live;
    ++state_->acquired;
    return Ref(state_, slot, s.gen);
  }

  /// Payloads currently referenced by at least one Ref.
  [[nodiscard]] std::size_t live() const noexcept { return state_->live; }
  /// Slots ever allocated: tracks the high-water live count, not the
  /// lifetime acquire count (tests assert memory stays O(live)).
  [[nodiscard]] std::size_t slab_capacity() const noexcept {
    return state_->slots.size();
  }
  /// Lifetime acquire() count.
  [[nodiscard]] std::uint64_t acquired() const noexcept {
    return state_->acquired;
  }

 private:
  std::shared_ptr<State> state_;
};

}  // namespace crusader::sim

