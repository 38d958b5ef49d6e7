// Timers on top of the event scheduler. Both kinds cancel themselves on
// destruction, so owning objects can hold them by value.
#pragma once

#include "sim/scheduler.hpp"

namespace ftvod::sim {

/// Fires once after a delay. Re-arming replaces the previous deadline.
class OneShotTimer {
 public:
  explicit OneShotTimer(Scheduler& sched) : sched_(&sched) {}
  ~OneShotTimer() { cancel(); }
  OneShotTimer(const OneShotTimer&) = delete;
  OneShotTimer& operator=(const OneShotTimer&) = delete;

  void arm(Duration delay, Scheduler::Callback fn);
  void cancel() { handle_.cancel(); }
  [[nodiscard]] bool pending() const { return handle_.pending(); }

 private:
  Scheduler* sched_;
  Scheduler::EventHandle handle_;
};

/// Fires repeatedly every period. The period may be changed while running;
/// the new period takes effect after the next tick.
class PeriodicTimer {
 public:
  PeriodicTimer(Scheduler& sched, Duration period, Scheduler::Callback fn)
      : sched_(&sched), period_(period), fn_(std::move(fn)) {}
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// First tick after one period (or after `initial_delay` if given).
  void start();
  void start(Duration initial_delay);
  void stop() { handle_.cancel(); }
  [[nodiscard]] bool running() const { return handle_.pending(); }

  void set_period(Duration period) { period_ = period; }
  [[nodiscard]] Duration period() const { return period_; }

 private:
  void tick();

  Scheduler* sched_;
  Duration period_;
  Scheduler::Callback fn_;
  Scheduler::EventHandle handle_;
};

}  // namespace ftvod::sim
