#include "sim/timer.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace ftvod::sim {
namespace {

TEST(OneShotTimer, FiresOnce) {
  Scheduler s;
  OneShotTimer t(s);
  int fired = 0;
  t.arm(100, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(OneShotTimer, RearmReplacesDeadline) {
  Scheduler s;
  OneShotTimer t(s);
  Time fired_at = -1;
  t.arm(100, [&] { fired_at = s.now(); });
  t.arm(500, [&] { fired_at = s.now(); });
  s.run();
  EXPECT_EQ(fired_at, 500);
}

TEST(OneShotTimer, CancelStops) {
  Scheduler s;
  OneShotTimer t(s);
  bool fired = false;
  t.arm(100, [&] { fired = true; });
  t.cancel();
  s.run();
  EXPECT_FALSE(fired);
}

TEST(OneShotTimer, DestructionCancels) {
  Scheduler s;
  bool fired = false;
  {
    OneShotTimer t(s);
    t.arm(100, [&] { fired = true; });
  }
  s.run();
  EXPECT_FALSE(fired);
}

TEST(PeriodicTimer, FiresAtPeriod) {
  Scheduler s;
  std::vector<Time> fires;
  PeriodicTimer t(s, 100, [&] { fires.push_back(s.now()); });
  t.start();
  s.run_until(450);
  EXPECT_EQ(fires, (std::vector<Time>{100, 200, 300, 400}));
}

TEST(PeriodicTimer, InitialDelayOverride) {
  Scheduler s;
  std::vector<Time> fires;
  PeriodicTimer t(s, 100, [&] { fires.push_back(s.now()); });
  t.start(10);
  s.run_until(250);
  EXPECT_EQ(fires, (std::vector<Time>{10, 110, 210}));
}

TEST(PeriodicTimer, StopFromCallback) {
  Scheduler s;
  int count = 0;
  PeriodicTimer t(s, 10, [&] {
    if (++count == 3) t.stop();
  });
  t.start();
  s.run_until(1000);
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTimer, SetPeriodTakesEffectNextTick) {
  Scheduler s;
  std::vector<Time> fires;
  PeriodicTimer t(s, 100, [&] {
    fires.push_back(s.now());
    t.set_period(50);
  });
  t.start();
  s.run_until(300);
  // First fire at 100 (old period); later fires every 50.
  EXPECT_EQ(fires, (std::vector<Time>{100, 200, 250, 300}));
}

TEST(PeriodicTimer, RestartAfterStop) {
  Scheduler s;
  int count = 0;
  PeriodicTimer t(s, 10, [&] { ++count; });
  t.start();
  s.run_until(35);
  EXPECT_EQ(count, 3);
  t.stop();
  s.run_until(100);
  EXPECT_EQ(count, 3);
  t.start();
  s.run_until(125);
  EXPECT_EQ(count, 5);
}

TEST(PeriodicTimer, DestructionCancels) {
  Scheduler s;
  int count = 0;
  {
    PeriodicTimer t(s, 10, [&] { ++count; });
    t.start();
    s.run_until(25);
  }
  s.run_until(100);
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTimer, HoldsMoveOnlyCallable) {
  // Both timer kinds take the scheduler's own callable type, so a callback
  // may own move-only state (std::function would not accept this).
  Scheduler s;
  auto count = std::make_unique<int>(0);
  int* seen = count.get();
  PeriodicTimer t(s, 10, [c = std::move(count)] { ++*c; });
  t.start();
  s.run_until(35);
  EXPECT_EQ(*seen, 3);
}

}  // namespace
}  // namespace ftvod::sim
