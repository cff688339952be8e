// Concurrency stress for the sharded farm hot path (DESIGN.md §14):
// the seq-ticket AdmissionQueue and the sharded ResultStore under many
// producers and consumers, batched pops, backoff-stamped retries, and
// drain-after-stop. These run under TSan via the `stress` ctest label
// (tsan preset), which turns the sharding disciplines — ticket-ordered
// shard deques, the missed-wakeup protocol, the capacity reservation,
// the per-shard result publication — into checked properties.
//
// Every test's core invariant is exactly-once: whatever the
// interleaving, each accepted job is popped exactly once and each
// published result is observed exactly once.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "farm/admission.h"
#include "farm/result_store.h"

namespace tmsim::farm {
namespace {

JobSpec tiny_spec(const std::string& name, Priority p, std::uint64_t seed) {
  JobSpec spec;
  spec.name = name;
  spec.net.width = 2;
  spec.net.height = 2;
  spec.net.topology = noc::Topology::kMesh;
  spec.priority = p;
  spec.seed = seed;
  spec.cycles = 100;
  return spec;
}

TEST(FarmStress, ManyProducersManyConsumersPopExactlyOnce) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 4;
  constexpr std::size_t kPerProducer = 300;
  AdmissionQueue queue(kProducers * kPerProducer, 1'000'000, {},
                       /*num_shards=*/4);

  std::mutex mu;
  std::set<std::uint64_t> accepted;
  std::vector<std::uint64_t> popped;

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const auto prio = static_cast<Priority>((p + i) % kNumPriorities);
        const SubmitOutcome out = queue.submit(
            tiny_spec("s" + std::to_string(p) + "-" + std::to_string(i), prio,
                      p * 1000 + i),
            static_cast<double>(i));
        ASSERT_TRUE(out.accepted) << out.detail;
        std::lock_guard<std::mutex> lock(mu);
        accepted.insert(out.job_id);
      }
    });
  }
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::vector<std::uint64_t> mine;
      while (std::optional<QueuedJob> job = queue.pop_blocking()) {
        mine.push_back(job->job_id);
      }
      std::lock_guard<std::mutex> lock(mu);
      popped.insert(popped.end(), mine.begin(), mine.end());
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  queue.stop();
  for (auto& t : consumers) {
    t.join();
  }

  EXPECT_EQ(accepted.size(), kProducers * kPerProducer);
  EXPECT_EQ(popped.size(), accepted.size());
  const std::set<std::uint64_t> unique(popped.begin(), popped.end());
  EXPECT_EQ(unique.size(), popped.size()) << "a job was popped twice";
  EXPECT_EQ(unique, accepted);
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.jobs_submitted(), kProducers * kPerProducer);
}

TEST(FarmStress, BatchPopsAreHomogeneousAndExactlyOnce) {
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kPerProducer = 200;
  // Three batch-compatibility classes, keyed off the seed.
  const AdmissionQueue::BatchKeyFn key_fn = [](const JobSpec& spec) {
    return 1 + (spec.seed % 3);
  };
  AdmissionQueue queue(kProducers * kPerProducer, 1'000'000, {},
                       /*num_shards=*/4, key_fn);

  std::mutex mu;
  std::set<std::uint64_t> accepted;
  std::vector<std::vector<QueuedJob>> batches;

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const auto prio = static_cast<Priority>(i % kNumPriorities);
        const SubmitOutcome out = queue.submit(
            tiny_spec("b" + std::to_string(p) + "-" + std::to_string(i), prio,
                      p * 7919 + i),
            0.0);
        ASSERT_TRUE(out.accepted) << out.detail;
        std::lock_guard<std::mutex> lock(mu);
        accepted.insert(out.job_id);
      }
    });
  }
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        std::vector<QueuedJob> batch = queue.pop_batch_blocking(4);
        if (batch.empty()) {
          return;
        }
        std::lock_guard<std::mutex> lock(mu);
        batches.push_back(std::move(batch));
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  queue.stop();
  for (auto& t : consumers) {
    t.join();
  }

  std::size_t total = 0;
  std::set<std::uint64_t> seen;
  for (const auto& batch : batches) {
    ASSERT_FALSE(batch.empty());
    ASSERT_LE(batch.size(), 4u);
    total += batch.size();
    for (const QueuedJob& job : batch) {
      EXPECT_TRUE(seen.insert(job.job_id).second) << "job popped twice";
      // Homogeneity: every member shares the head's class and batch key.
      EXPECT_EQ(job.spec.priority, batch.front().spec.priority);
      EXPECT_EQ(job.batch_key, batch.front().batch_key);
      EXPECT_EQ(job.batch_key, key_fn(job.spec));
    }
    // Ticket order within the batch: batching never reorders.
    for (std::size_t i = 1; i < batch.size(); ++i) {
      EXPECT_LT(batch[i - 1].seq, batch[i].seq);
    }
  }
  EXPECT_EQ(total, accepted.size());
  EXPECT_EQ(seen, accepted);
}

TEST(FarmStress, SequentialBatchesPreserveFifoOrder) {
  const AdmissionQueue::BatchKeyFn key_fn = [](const JobSpec& spec) {
    return 1 + (spec.seed % 2);
  };
  AdmissionQueue queue(100, 1'000'000, {}, /*num_shards=*/4, key_fn);
  std::vector<std::uint64_t> submitted;
  for (std::size_t i = 0; i < 60; ++i) {
    // Key pattern A A B A B B ... — batches must break exactly at key
    // changes, never skipping ahead to a compatible later job.
    const SubmitOutcome out =
        queue.submit(tiny_spec("f" + std::to_string(i), Priority::kNormal,
                               (i * i) % 7),
                     0.0);
    ASSERT_TRUE(out.accepted);
    submitted.push_back(out.job_id);
  }
  queue.stop();
  std::vector<std::uint64_t> popped;
  for (;;) {
    const std::vector<QueuedJob> batch = queue.pop_batch_blocking(4);
    if (batch.empty()) {
      break;
    }
    for (const QueuedJob& job : batch) {
      popped.push_back(job.job_id);
    }
  }
  // Concatenated batch order == submission order: batching is pure
  // dispatch amortization, invisible to FIFO semantics.
  EXPECT_EQ(popped, submitted);
}

TEST(FarmStress, BackoffStampedJobsDrainAfterStopUnderConcurrency) {
  AdmissionQueue queue(64, 1'000'000, {}, /*num_shards=*/4);
  std::vector<QueuedJob> held;
  for (std::size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(queue
                    .submit(tiny_spec("r" + std::to_string(i),
                                      Priority::kNormal, i),
                            0.0)
                    .accepted);
    std::optional<QueuedJob> job = queue.pop_blocking();
    ASSERT_TRUE(job.has_value());
    held.push_back(std::move(*job));
  }
  // Requeue all with a real (steady-clock) backoff in the near future,
  // from multiple threads, then stop — the backlog must still drain.
  const double now = []() {
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count()) *
           1e-3;
  }();
  std::vector<std::thread> requeuers;
  std::mutex mu;
  std::size_t next = 0;
  for (std::size_t t = 0; t < 3; ++t) {
    requeuers.emplace_back([&] {
      for (;;) {
        QueuedJob job;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (next >= held.size()) {
            return;
          }
          job = std::move(held[next++]);
        }
        job.not_before_us = now + 5'000.0 + 1'000.0 * (job.job_id % 5);
        queue.requeue(std::move(job), now, RequeuePosition::kBack);
      }
    });
  }
  for (auto& t : requeuers) {
    t.join();
  }
  queue.stop();
  std::mutex pmu;
  std::vector<std::uint64_t> drained;
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (std::optional<QueuedJob> job = queue.pop_blocking()) {
        std::lock_guard<std::mutex> lock(pmu);
        drained.push_back(job->job_id);
      }
    });
  }
  for (auto& t : consumers) {
    t.join();
  }
  EXPECT_EQ(drained.size(), 12u);
  const std::set<std::uint64_t> unique(drained.begin(), drained.end());
  EXPECT_EQ(unique.size(), 12u);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(FarmStress, HasHigherThanProbeRunsRaceFreeAgainstChurn) {
  AdmissionQueue queue(5000, 1'000'000, {}, /*num_shards=*/4);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sightings{0};
  // The preemption probe, hammered from two threads while a producer
  // churns interactive jobs through a consumer — TSan checks the
  // lock-free fast path against enqueue/pop mutation.
  std::vector<std::thread> probes;
  for (std::size_t t = 0; t < 2; ++t) {
    probes.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (queue.has_higher_than(Priority::kBatch)) {
          sightings.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread consumer([&] {
    // Under parallel ctest load the consumer could drain every job before
    // either probe thread is first scheduled. Hold the drain until the
    // first sighting (bounded, so a blind probe still fails the EXPECT
    // below instead of hanging), then pop while both probes keep racing.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (sightings.load(std::memory_order_relaxed) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    while (queue.pop_blocking()) {
    }
  });
  for (std::size_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        queue
            .submit(tiny_spec("h" + std::to_string(i),
                              i % 2 == 0 ? Priority::kInteractive
                                         : Priority::kNormal,
                              i),
                    0.0)
            .accepted);
  }
  queue.stop();
  consumer.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : probes) {
    t.join();
  }
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_GT(sightings.load(), 0u);  // the probe did see eligible work
}

TEST(FarmStress, ResultStorePutStormKeepsEveryResultAndFeedAccounting) {
  constexpr std::size_t kWriters = 8;
  constexpr std::size_t kPerWriter = 300;
  ResultStore store(/*completion_feed_depth=*/64, /*num_shards=*/8);

  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        JobResult r;
        r.job_id = t * kPerWriter + i + 1;
        r.status = JobStatus::kDone;
        r.state_digest = r.job_id * 0x9e3779b97f4a7c15ull;
        store.put(std::move(r));
      }
    });
  }
  // Concurrent readers: each blocks on a result its writer publishes
  // mid-storm, then point-reads others.
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kWriters; ++t) {
    readers.emplace_back([&, t] {
      const std::uint64_t id = t * kPerWriter + kPerWriter / 2 + 1;
      const JobResult r = store.wait(id);
      EXPECT_EQ(r.job_id, id);
      EXPECT_EQ(r.state_digest, id * 0x9e3779b97f4a7c15ull);
    });
  }
  // And a drainer emptying the bounded completion feed while puts race.
  std::size_t drained = 0;
  std::thread drainer([&] {
    for (std::size_t i = 0; i < 50; ++i) {
      drained += store.drain_completions().size();
      std::this_thread::yield();
    }
  });
  for (auto& t : writers) {
    t.join();
  }
  for (auto& t : readers) {
    t.join();
  }
  drainer.join();
  drained += store.drain_completions().size();

  EXPECT_EQ(store.size(), kWriters * kPerWriter);
  const std::vector<JobResult> all = store.all();
  EXPECT_EQ(all.size(), kWriters * kPerWriter);
  std::set<std::uint64_t> ids;
  for (const JobResult& r : all) {
    EXPECT_TRUE(ids.insert(r.job_id).second);
    EXPECT_EQ(r.state_digest, r.job_id * 0x9e3779b97f4a7c15ull);
    EXPECT_TRUE(store.get(r.job_id).has_value());
  }
  // Drop-oldest accounting: every completion was either drained or
  // counted dropped — none vanished.
  EXPECT_EQ(drained + store.completions_dropped(), kWriters * kPerWriter);
}

}  // namespace
}  // namespace tmsim::farm
