#pragma once
/// \file state_machine.h
/// \brief Validated lifecycle state machines for pilots and units.
///
/// Every state change in the middleware flows through these objects, which
/// reject illegal transitions (a DONE unit cannot start RUNNING) and
/// notify observers — the mechanism behind the Pilot-API's callbacks.
/// Keeping transition legality in one place is what makes the property
/// tests in tests/core/ meaningful.

#include <functional>
#include <utility>

#include "pa/common/error.h"
#include "pa/core/types.h"

namespace pa::core {

namespace detail {
bool pilot_transition_allowed(PilotState from, PilotState to);
bool unit_transition_allowed(UnitState from, UnitState to);
}  // namespace detail

/// Generic observable state holder; `TransitionAllowed` is a function
/// pointer validating edges.
template <typename State, bool (*TransitionAllowed)(State, State),
          const char* (*Name)(State)>
class StateMachine {
 public:
  using Observer = std::function<void(State from, State to)>;

  explicit StateMachine(State initial) : state_(initial) {}

  State state() const { return state_; }

  /// Performs a transition; throws pa::InvalidStateError on illegal edges.
  /// Self-transitions are no-ops (idempotent callbacks).
  void transition(State to) {
    if (to == state_) {
      return;
    }
    if (!TransitionAllowed(state_, to)) {
      throw InvalidStateError(std::string("illegal transition ") +
                              Name(state_) + " -> " + Name(to));
    }
    const State from = state_;
    state_ = to;
    if (observer_) {
      observer_(from, to);
    }
  }

  /// Attempts a transition; returns false instead of throwing. Used on
  /// paths where a race with a final state is expected (cancellation).
  bool try_transition(State to) {
    if (to == state_) {
      return true;
    }
    if (!TransitionAllowed(state_, to)) {
      return false;
    }
    transition(to);
    return true;
  }

  /// Adds an observer; each transition notifies them in the order they
  /// were added. The machine holds one callable, so a single observer
  /// that fits std::function's small buffer costs no allocation.
  void observe(Observer observer) {
    if (!observer_) {
      observer_ = std::move(observer);
      return;
    }
    observer_ = [first = std::move(observer_),
                 next = std::move(observer)](State from, State to) {
      first(from, to);
      next(from, to);
    };
  }

 private:
  State state_;
  Observer observer_;
};

using PilotStateMachine =
    StateMachine<PilotState, detail::pilot_transition_allowed, to_string>;
using UnitStateMachine =
    StateMachine<UnitState, detail::unit_transition_allowed, to_string>;

}  // namespace pa::core
