#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mobi::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(Simulator, EqualTimesRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_in(3.0, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 5.0);
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::logic_error);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), std::logic_error);
}

TEST(Simulator, RunUntilLeavesLaterEvents) {
  Simulator sim;
  int ran = 0;
  sim.schedule_at(1.0, [&] { ++ran; });
  sim.schedule_at(10.0, [&] { ++ran; });
  const auto count = sim.run_until(5.0);
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.now(), 5.0);  // advanced to horizon
}

TEST(Simulator, StepRunsExactlyOne) {
  Simulator sim;
  int ran = 0;
  sim.schedule_at(1.0, [&] { ++ran; });
  sim.schedule_at(2.0, [&] { ++ran; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ScheduleEveryRecurs) {
  Simulator sim;
  int fires = 0;
  sim.schedule_every(0.0, 2.0, [&] { ++fires; });
  sim.run_until(9.0);  // fires at 0, 2, 4, 6, 8
  EXPECT_EQ(fires, 5);
  EXPECT_THROW(sim.schedule_every(0.0, 0.0, [] {}), std::logic_error);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_in(1.0, recurse);
  };
  sim.schedule_at(0.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 4.0);
}

TEST(Simulator, ExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(double(i), [] {});
  sim.run();
  EXPECT_EQ(sim.executed(), 7u);
}

}  // namespace
}  // namespace mobi::sim
