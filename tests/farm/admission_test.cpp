// AdmissionQueue semantics: strict priority with FIFO inside a class,
// reject-with-reason backpressure (never blocking), and the requeue path
// preempted jobs ride — front of class, capacity-exempt, alive even
// after stop().
#include "farm/admission.h"

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace tmsim::farm {
namespace {

JobSpec spec_with(Priority p, const std::string& name = "j",
                  SystemCycle cycles = 100) {
  JobSpec s;
  s.name = name;
  s.priority = p;
  s.cycles = cycles;
  return s;
}

TEST(AdmissionQueue, StrictPriorityThenFifoWithinClass) {
  AdmissionQueue q(16, 1'000'000);
  // Interleave submissions across classes.
  ASSERT_TRUE(q.submit(spec_with(Priority::kBatch, "b0"), 0).accepted);
  ASSERT_TRUE(q.submit(spec_with(Priority::kNormal, "n0"), 0).accepted);
  ASSERT_TRUE(q.submit(spec_with(Priority::kInteractive, "i0"), 0).accepted);
  ASSERT_TRUE(q.submit(spec_with(Priority::kBatch, "b1"), 0).accepted);
  ASSERT_TRUE(q.submit(spec_with(Priority::kInteractive, "i1"), 0).accepted);
  ASSERT_TRUE(q.submit(spec_with(Priority::kNormal, "n1"), 0).accepted);

  EXPECT_TRUE(q.has_higher_than(Priority::kBatch));
  EXPECT_TRUE(q.has_higher_than(Priority::kNormal));
  EXPECT_FALSE(q.has_higher_than(Priority::kInteractive));

  std::vector<std::string> order;
  for (int i = 0; i < 6; ++i) {
    auto job = q.pop_blocking();
    ASSERT_TRUE(job.has_value());
    order.push_back(job->spec.name);
  }
  EXPECT_EQ(order,
            (std::vector<std::string>{"i0", "i1", "n0", "n1", "b0", "b1"}));
}

TEST(AdmissionQueue, RejectsWithStructuredReasons) {
  AdmissionQueue q(2, 1000);

  // kTooLarge: cycle budget above the ceiling.
  const auto too_large = q.submit(spec_with(Priority::kNormal, "big", 1001), 0);
  EXPECT_FALSE(too_large.accepted);
  EXPECT_EQ(too_large.reason, RejectReason::kTooLarge);
  EXPECT_NE(too_large.detail.find("1001"), std::string::npos);

  // kInvalidSpec: validation failure, detail carries the why.
  JobSpec bad = spec_with(Priority::kNormal);
  bad.cycles = 0;
  const auto invalid = q.submit(bad, 0);
  EXPECT_FALSE(invalid.accepted);
  EXPECT_EQ(invalid.reason, RejectReason::kInvalidSpec);
  EXPECT_FALSE(invalid.detail.empty());

  // kQueueFull: capacity is 2.
  ASSERT_TRUE(q.submit(spec_with(Priority::kNormal), 0).accepted);
  ASSERT_TRUE(q.submit(spec_with(Priority::kNormal), 0).accepted);
  const auto full = q.submit(spec_with(Priority::kNormal), 0);
  EXPECT_FALSE(full.accepted);
  EXPECT_EQ(full.reason, RejectReason::kQueueFull);

  // Popping frees capacity again.
  ASSERT_TRUE(q.pop_blocking().has_value());
  EXPECT_TRUE(q.submit(spec_with(Priority::kNormal), 0).accepted);

  // kStopped after stop().
  q.stop();
  const auto stopped = q.submit(spec_with(Priority::kNormal), 0);
  EXPECT_FALSE(stopped.accepted);
  EXPECT_EQ(stopped.reason, RejectReason::kStopped);

  EXPECT_EQ(q.jobs_submitted(), 3u);
  EXPECT_EQ(q.jobs_rejected(), 4u);
}

TEST(AdmissionQueue, RequeueGoesToFrontAndIgnoresCapacity) {
  AdmissionQueue q(2, 1'000'000);
  ASSERT_TRUE(q.submit(spec_with(Priority::kNormal, "n0"), 0).accepted);
  ASSERT_TRUE(q.submit(spec_with(Priority::kNormal, "n1"), 0).accepted);

  auto running = q.pop_blocking();  // n0 leaves the queue
  ASSERT_TRUE(running.has_value());
  ASSERT_TRUE(q.submit(spec_with(Priority::kNormal, "n2"), 0).accepted);

  // Queue is at fresh capacity again (n1, n2) — requeue must still work,
  // and the preempted job must overtake same-class fresh work.
  EXPECT_TRUE(q.requeue(std::move(*running), 1));
  EXPECT_EQ(q.depth(Priority::kNormal), 3u);
  const auto fresh = q.submit(spec_with(Priority::kNormal, "n3"), 1);
  EXPECT_FALSE(fresh.accepted);  // fresh capacity still enforced

  auto next = q.pop_blocking();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->spec.name, "n0");
  // requeue() no longer edits scheduling counters — the farm accounts
  // for *why* a job came back (preemption vs retry vs reclaim).
  EXPECT_EQ(next->preemptions, 0u);
  EXPECT_FALSE(next->fresh);
}

TEST(AdmissionQueue, QueueFullCarriesDeterministicBackpressureHint) {
  AdmissionQueue q(3, 1'000'000);
  for (int i = 0; i < 3; ++i) {
    const auto out = q.submit(spec_with(Priority::kNormal), 0);
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(out.queue_capacity, 3u);
    EXPECT_EQ(out.queue_depth, static_cast<std::size_t>(i + 1));
    EXPECT_EQ(out.retry_after_us, 0.0);  // hint is kQueueFull-only
  }
  const auto full = q.submit(spec_with(Priority::kNormal), 0);
  ASSERT_FALSE(full.accepted);
  EXPECT_EQ(full.reason, RejectReason::kQueueFull);
  EXPECT_EQ(full.queue_depth, 3u);
  EXPECT_EQ(full.queue_capacity, 3u);
  // The hint is a pure function of queue state: slope × fresh backlog.
  EXPECT_EQ(full.retry_after_us, kRetryAfterUsPerJob * 3.0);
  EXPECT_NE(full.detail.find("suggest retrying"), std::string::npos);
  // Identical rejection state → identical hint (replayable load tests).
  const auto again = q.submit(spec_with(Priority::kNormal), 123.0);
  ASSERT_FALSE(again.accepted);
  EXPECT_EQ(again.retry_after_us, full.retry_after_us);
}

TEST(AdmissionQueue, RequeueBackYieldsToFreshSameClassWork) {
  AdmissionQueue q(8, 1'000'000);
  ASSERT_TRUE(q.submit(spec_with(Priority::kNormal, "n0"), 0).accepted);
  ASSERT_TRUE(q.submit(spec_with(Priority::kNormal, "n1"), 0).accepted);
  auto flaky = q.pop_blocking();  // n0
  ASSERT_TRUE(flaky.has_value());
  // A retry goes to the *back* of its class: it must not starve n1.
  EXPECT_TRUE(q.requeue(std::move(*flaky), 1, RequeuePosition::kBack));
  auto first = q.pop_blocking();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->spec.name, "n1");
  auto second = q.pop_blocking();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->spec.name, "n0");
}

TEST(AdmissionQueue, FrontRequeueIsNotReportedAsTheOldestJob) {
  AdmissionQueue q(8, 1'000'000);
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(q.submit(spec_with(Priority::kNormal, "n" + std::to_string(i)),
                         10.0 * i)
                    .accepted);
  }
  auto preempted = q.pop_blocking();  // n1, queued at 10
  ASSERT_TRUE(preempted.has_value());
  auto reclaimed = q.pop_blocking();  // n2, queued at 20
  ASSERT_TRUE(reclaimed.has_value());
  // Two front requeues stamped later than every queued job, the later
  // stamp reaching the lock first (two workers racing): the class now
  // reads n2(50) n1(60) n3(30) n4(40) from the front.
  EXPECT_TRUE(q.requeue(std::move(*preempted), 60.0, RequeuePosition::kFront));
  EXPECT_TRUE(q.requeue(std::move(*reclaimed), 50.0, RequeuePosition::kFront));
  const auto depths = q.class_depths();
  const auto& normal = depths[static_cast<std::size_t>(Priority::kNormal)];
  EXPECT_EQ(normal.depth, 4u);
  EXPECT_EQ(normal.oldest_queued_us, 30.0);
  EXPECT_EQ(depths[static_cast<std::size_t>(Priority::kBatch)].depth, 0u);
  EXPECT_EQ(depths[static_cast<std::size_t>(Priority::kBatch)].oldest_queued_us,
            0.0);
  // Without a front requeue the front job is the oldest.
  ASSERT_TRUE(q.submit(spec_with(Priority::kInteractive, "i1"), 70.0).accepted);
  ASSERT_TRUE(q.submit(spec_with(Priority::kInteractive, "i2"), 80.0).accepted);
  EXPECT_EQ(
      q.class_depths()[static_cast<std::size_t>(Priority::kInteractive)]
          .oldest_queued_us,
      70.0);
}

TEST(AdmissionQueue, BackoffHidesJobsUntilTheInjectedClockReachesThem) {
  // Injected clock: eligibility becomes a pure function of test state.
  double fake_now = 0.0;
  AdmissionQueue q(8, 1'000'000, [&] { return fake_now; });
  ASSERT_TRUE(q.submit(spec_with(Priority::kNormal, "flaky"), 0).accepted);
  ASSERT_TRUE(q.submit(spec_with(Priority::kBatch, "patient"), 0).accepted);
  auto flaky = q.pop_blocking();
  ASSERT_TRUE(flaky.has_value());
  ASSERT_EQ(flaky->spec.name, "flaky");

  // Requeue the higher-class job with a 5ms backoff. Until the clock
  // gets there it is invisible: not to has_higher_than (a backoff'd job
  // must not trigger preemptions)…
  flaky->not_before_us = 5'000.0;
  EXPECT_TRUE(q.requeue(std::move(*flaky), 0, RequeuePosition::kBack));
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_FALSE(q.has_higher_than(Priority::kBatch));

  // …and not to pop_blocking: the lower-priority-but-eligible job wins.
  auto first = q.pop_blocking();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->spec.name, "patient");

  // Once the clock passes the stamp the job is served normally.
  fake_now = 5'000.0;
  auto second = q.pop_blocking();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->spec.name, "flaky");
}

TEST(AdmissionQueue, PopSleepsOutBackoffAndStopStillDrainsIt) {
  // Real steady clock (the default): share its epoch via a twin lambda.
  const auto clock = [] {
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count()) *
           1e-3;
  };
  AdmissionQueue q(8, 1'000'000, clock);
  ASSERT_TRUE(q.submit(spec_with(Priority::kNormal, "retry"), 0).accepted);
  auto job = q.pop_blocking();
  ASSERT_TRUE(job.has_value());
  job->not_before_us = clock() + 2'000.0;  // 2ms from now
  EXPECT_TRUE(q.requeue(std::move(*job), clock(), RequeuePosition::kBack));
  q.stop();
  // Admitted work always resolves: pop_blocking sleeps the backoff out
  // even though the queue is stopped (hanging here = the bug).
  auto drained = q.pop_blocking();
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(drained->spec.name, "retry");
  EXPECT_FALSE(q.pop_blocking().has_value());
}

TEST(AdmissionQueue, RequeueAfterStopDrainsBeforeShutdown) {
  AdmissionQueue q(4, 1'000'000);
  ASSERT_TRUE(q.submit(spec_with(Priority::kBatch, "b0"), 0).accepted);
  auto running = q.pop_blocking();
  ASSERT_TRUE(running.has_value());

  q.stop();
  // Admitted work must always be able to come back, even mid-shutdown.
  EXPECT_TRUE(q.requeue(std::move(*running), 1));
  auto back = q.pop_blocking();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->spec.name, "b0");
  // Backlog drained → nullopt, forever after.
  EXPECT_FALSE(q.pop_blocking().has_value());
  EXPECT_FALSE(q.pop_blocking().has_value());
}

TEST(AdmissionQueue, StopWakesBlockedPoppers) {
  AdmissionQueue q(4, 1'000'000);
  std::thread popper([&] {
    // Blocks on the empty queue until stop() wakes it with nullopt.
    EXPECT_FALSE(q.pop_blocking().has_value());
  });
  q.stop();
  popper.join();  // would hang forever if stop() failed to wake the waiter
}

}  // namespace
}  // namespace tmsim::farm
