#include "net/downlink.hpp"
#include "net/fault_injector.hpp"

#include <gtest/gtest.h>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_plan.hpp"

namespace mobi::net {
namespace {

TEST(WirelessDownlink, DeliversUpToCapacity) {
  WirelessDownlink downlink(10);
  downlink.enqueue(25);
  EXPECT_EQ(downlink.tick(), 10);
  EXPECT_EQ(downlink.tick(), 10);
  EXPECT_EQ(downlink.tick(), 5);
  EXPECT_EQ(downlink.queued(), 0);
  EXPECT_EQ(downlink.delivered_total(), 25);
}

TEST(WirelessDownlink, IdleCapacityIsTracked) {
  WirelessDownlink downlink(10);
  downlink.enqueue(4);
  downlink.tick();  // 4 delivered, 6 idle
  downlink.tick();  // fully idle
  EXPECT_EQ(downlink.idle_total(), 16);
  EXPECT_DOUBLE_EQ(downlink.utilization(), 4.0 / 20.0);
}

TEST(WirelessDownlink, MultipleItemsDrainFifo) {
  WirelessDownlink downlink(10);
  downlink.enqueue(6);
  downlink.enqueue(6);
  EXPECT_EQ(downlink.tick(), 10);  // first item + 4 of second
  EXPECT_EQ(downlink.queued(), 2);
  EXPECT_EQ(downlink.tick(), 2);
}

TEST(WirelessDownlink, FullUtilizationWhenSaturated) {
  WirelessDownlink downlink(5);
  downlink.enqueue(100);
  for (int i = 0; i < 10; ++i) downlink.tick();
  EXPECT_DOUBLE_EQ(downlink.utilization(), 1.0);
  EXPECT_EQ(downlink.queued(), 50);
}

TEST(WirelessDownlink, ZeroEnqueueIsNoop) {
  WirelessDownlink downlink(5);
  downlink.enqueue(0);
  EXPECT_EQ(downlink.queued(), 0);
}

TEST(WirelessDownlink, Validation) {
  EXPECT_THROW(WirelessDownlink(0), std::invalid_argument);
  WirelessDownlink downlink(5);
  EXPECT_THROW(downlink.enqueue(-1), std::invalid_argument);
}

TEST(WirelessDownlink, UtilizationZeroBeforeTicks) {
  WirelessDownlink downlink(5);
  EXPECT_DOUBLE_EQ(downlink.utilization(), 0.0);
}

sim::FaultPlan drop_all_plan() {
  sim::FaultPlan plan;
  plan.downlink_drop_rate = 1.0;
  return plan;
}

TEST(WirelessDownlink, ConservesUnitsWithoutFaults) {
  WirelessDownlink downlink(4);
  downlink.enqueue(3);
  downlink.enqueue(7);
  while (downlink.queued() > 0) downlink.tick();
  EXPECT_EQ(downlink.enqueued_total(), 10);
  EXPECT_EQ(downlink.delivered_total(), 10);
  EXPECT_EQ(downlink.dropped_total(), 0);
  EXPECT_EQ(downlink.wasted_airtime_total(), 0);
}

TEST(WirelessDownlink, DroppedChunkChargesAirtimeButDeliversNothing) {
  const sim::FaultPlan plan = drop_all_plan();
  FaultInjector injector(plan);
  WirelessDownlink downlink(5);
  downlink.set_fault_injector(&injector);
  downlink.enqueue(3);
  EXPECT_EQ(downlink.tick(), 0);  // dropped mid-flight, nothing delivered
  EXPECT_EQ(downlink.delivered_total(), 0);
  EXPECT_EQ(downlink.dropped_total(), 3);
  EXPECT_EQ(downlink.wasted_airtime_total(), 3);  // airtime was spent
  EXPECT_EQ(downlink.idle_total(), 2);            // only the leftover idles
  EXPECT_EQ(downlink.queued(), 0);
  // Conservation: enqueued == delivered + queued + dropped, exactly.
  EXPECT_EQ(downlink.enqueued_total(),
            downlink.delivered_total() + downlink.queued() +
                downlink.dropped_total());
}

TEST(WirelessDownlink, PartiallyDeliveredChunkDropsOnlyItsRemainder) {
  // Regression: a 10-unit chunk delivers 6 units on tick one, then drops
  // — the prefix stays delivered and exactly the 4 undelivered units
  // count as dropped, so conservation holds to the unit.
  FaultInjector injector(drop_all_plan());
  WirelessDownlink downlink(6);
  downlink.enqueue(10);
  EXPECT_EQ(downlink.tick(), 6);  // no injector yet: healthy delivery
  ASSERT_EQ(downlink.delivered_total(), 6);
  ASSERT_EQ(downlink.queued(), 4);

  downlink.set_fault_injector(&injector);
  EXPECT_EQ(downlink.tick(), 0);
  EXPECT_EQ(downlink.delivered_total(), 6);  // the prefix stays delivered
  EXPECT_EQ(downlink.dropped_total(), 4);    // only the remainder dropped
  EXPECT_EQ(downlink.wasted_airtime_total(), 4);
  EXPECT_EQ(downlink.queued(), 0);
  EXPECT_EQ(downlink.enqueued_total(),
            downlink.delivered_total() + downlink.queued() +
                downlink.dropped_total());
}

TEST(WirelessDownlink, DropFreesAirtimeForTheNextChunkInTheTick) {
  // A drop consumes only the airtime actually spent on the doomed chunk;
  // the remaining budget still reaches the rest of the queue (and here
  // drops it too — one draw per chunk touched).
  FaultInjector dropping(drop_all_plan());
  WirelessDownlink downlink(10);
  downlink.set_fault_injector(&dropping);
  downlink.enqueue(4);
  downlink.enqueue(5);
  EXPECT_EQ(downlink.tick(), 0);
  EXPECT_EQ(dropping.counters().downlink_drops, 2u);
  EXPECT_EQ(downlink.dropped_total(), 9);
  EXPECT_EQ(downlink.wasted_airtime_total(), 9);
  EXPECT_EQ(downlink.idle_total(), 1);
}

TEST(WirelessDownlink, IdleInjectorIsBitIdenticalToDetached) {
  FaultInjector idle(sim::FaultPlan{});
  ASSERT_TRUE(idle.idle());
  WirelessDownlink plain(4);
  WirelessDownlink wired(4);
  wired.set_fault_injector(&idle);
  for (int i = 0; i < 20; ++i) {
    plain.enqueue(object::Units(i % 7));
    wired.enqueue(object::Units(i % 7));
    ASSERT_EQ(plain.tick(), wired.tick()) << i;
    ASSERT_EQ(plain.queued(), wired.queued()) << i;
  }
  EXPECT_EQ(wired.dropped_total(), 0);
  EXPECT_EQ(idle.counters().downlink_drops, 0u);
}

// Each chunk is traced for the request that queued it: every delivery
// observes its queue wait, only a sampled request's delivery is recorded,
// chunks queued before the tracer attached count as unsampled, and drops
// are recorded whatever the tag.
TEST(WirelessDownlink, TracesDeliveriesOfSampledRequestsAndEveryDrop) {
  obs::MetricsRegistry registry;
  obs::RequestTracer tracer;
  tracer.register_histograms(&registry);
  WirelessDownlink downlink(4);
  downlink.enqueue(2, {1, 10, true});  // before attach: counts as unsampled
  downlink.set_tracer(&tracer);
  downlink.enqueue(2, {2, 20, true});
  downlink.enqueue(3, {3, 30, false});
  downlink.enqueue(3, {4, 40, true});
  tracer.begin_tick(0);
  EXPECT_EQ(downlink.tick(), 4);  // chunks 1 and 2
  tracer.begin_tick(1);
  EXPECT_EQ(downlink.tick(), 4);  // chunk 3, a unit of chunk 4
  tracer.begin_tick(2);
  EXPECT_EQ(downlink.tick(), 2);  // the rest of chunk 4

  const obs::FixedHistogram& wait = *registry.find_histogram("lat.queue_wait");
  EXPECT_EQ(wait.total(), 4u);
  EXPECT_DOUBLE_EQ(wait.sum(), 0 + 0 + 1 + 2);
  const obs::EventLog& log = tracer.log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.events()[0].kind, obs::EventKind::kDownlinkDelivered);
  EXPECT_EQ(log.events()[0].tick, 0);
  EXPECT_EQ(log.events()[0].object, 2u);
  EXPECT_EQ(log.events()[0].client, 20u);
  EXPECT_EQ(log.events()[0].value, 0.0);
  EXPECT_EQ(log.events()[1].object, 4u);
  EXPECT_EQ(log.events()[1].client, 40u);
  EXPECT_EQ(log.events()[1].value, 2.0);

  FaultInjector dropping(drop_all_plan());
  downlink.set_fault_injector(&dropping);
  downlink.enqueue(2, {5, 50, false});
  tracer.begin_tick(3);
  downlink.tick();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.events()[2].kind, obs::EventKind::kDownlinkDrop);
  EXPECT_EQ(log.events()[2].value, 2.0);
  EXPECT_EQ(wait.total(), 4u);  // a drop is no delivery
}

}  // namespace
}  // namespace mobi::net
