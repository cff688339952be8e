// The farm's headline guarantee, enforced over randomized specs: a job
// returns bit-identical results whether it runs
//   (a) standalone on this thread,
//   (b) on a 1-worker farm, or
//   (c) on a multi-worker farm under forced preemption — checkpointed
//       after *every* quantum, requeued, and resumed on whichever worker
//       (and whichever cached engine) picks it up next, with paranoid
//       digest re-verification on every resume.
//
// Because farm workers run engines with the canonical schedule seed
// while standalone runs derive one from the job seed, every comparison
// here is also an empirical proof that evaluation order never leaks
// into results (the engine contract of DESIGN.md §4).
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/noc_block.h"
#include "farm/farm.h"
#include "farm/session.h"

namespace tmsim::farm {
namespace {

/// Randomized small spec: 2x2..3x3 meshes, 60..200 cycles, mixed BE/GT
/// workloads, ~1 in 4 hosted (some with a faulty bus).
JobSpec random_spec(std::uint64_t index) {
  SplitMix64 rng(0xfa4111ull + index);
  JobSpec spec;
  spec.name = "rand-" + std::to_string(index);
  spec.net.width = 2 + rng.next_below(2);
  spec.net.height = 2 + rng.next_below(2);
  spec.net.topology = noc::Topology::kMesh;
  spec.net.router.queue_depth = 2 + rng.next_below(2);
  spec.priority = static_cast<Priority>(rng.next_below(kNumPriorities));
  spec.seed = rng.next();
  spec.cycles = 60 + rng.next_below(141);
  // Spare draws (the shard count and schedule seed specs once carried),
  // so every later draw, and every other field, is unchanged.
  (void)rng.next_below(2);
  (void)rng.next();
  spec.workload.be_load = 0.05 * static_cast<double>(rng.next_below(5));

  const bool hosted = rng.next_below(4) == 0;
  if (hosted) {
    spec.kind = JobKind::kHostedFpga;
    if (rng.next_below(2) == 0) {
      spec.faults.read_flip = 1e-3;
      spec.faults.stuck_busy = 1e-3;
    }
  } else {
    spec.workload.verify_payload = rng.next_below(2) == 0;
    spec.workload.warmup_cycles = rng.next_below(2) == 0 ? 20 : 0;
  }
  // Explicit GT streams on distinct VCs (fig1_gt needs width >= 4, these
  // nets are 2-3 wide). Distinct VCs can never violate the one-stream-
  // per-VC link rule, whatever the endpoints.
  const std::size_t routers = spec.net.width * spec.net.height;
  const std::uint64_t num_gt = rng.next_below(3);
  for (std::uint64_t g = 0; g < num_gt; ++g) {
    traffic::GtStream s;
    s.src = rng.next_below(routers);
    s.dst = (s.src + 1 + rng.next_below(routers - 1)) % routers;
    s.vc = static_cast<unsigned>(g);
    s.period = 40 + 10 * rng.next_below(4);
    s.phase = rng.next_below(20);
    spec.workload.gt_streams.push_back(s);
  }
  return spec;
}

std::vector<JobResult> run_on_farm(const std::vector<JobSpec>& specs,
                                   std::size_t workers, bool force_preempt,
                                   SystemCycle quantum) {
  FarmOptions opt;
  opt.num_workers = workers;
  opt.queue_capacity = specs.size();
  opt.preempt_quantum = quantum;
  opt.force_preempt = force_preempt;
  opt.paranoid_resume = true;
  // Each worker keeps 2 warm engines (< distinct topologies): cache churn.
  SimFarm farm(opt);
  std::vector<std::uint64_t> ids;
  ids.reserve(specs.size());
  for (const JobSpec& spec : specs) {
    const SubmitOutcome out = farm.submit(spec);
    EXPECT_TRUE(out.accepted) << spec.name << ": " << out.detail;
    ids.push_back(out.job_id);
  }
  farm.drain();
  std::vector<JobResult> results;
  results.reserve(ids.size());
  for (const std::uint64_t id : ids) {
    results.push_back(farm.results().get(id).value());
  }
  return results;
}

TEST(FarmDeterminism, StandaloneVsFarmVsPreemptedFarmBitIdentical) {
  constexpr std::size_t kSpecs = 100;
  std::vector<JobSpec> specs;
  specs.reserve(kSpecs);
  for (std::size_t i = 0; i < kSpecs; ++i) {
    specs.push_back(random_spec(i));
    ASSERT_NO_THROW(specs.back().validate()) << specs.back().serialize();
  }

  // (a) the reference: each spec start-to-finish, no farm.
  std::vector<JobResult> standalone;
  standalone.reserve(kSpecs);
  for (const JobSpec& spec : specs) {
    standalone.push_back(run_job_standalone(spec));
    ASSERT_EQ(standalone.back().status, JobStatus::kDone)
        << spec.name << ": " << standalone.back().error;
  }

  // (b) 1 worker, no preemption: pure serialization through the queue.
  const auto farm1 = run_on_farm(specs, 1, /*force_preempt=*/false, 256);
  // (c) 4 workers, forced preemption every 17 cycles: maximal
  // checkpoint/restore/migrate churn.
  const auto farmN = run_on_farm(specs, 4, /*force_preempt=*/true, 17);

  ASSERT_EQ(farm1.size(), kSpecs);
  ASSERT_EQ(farmN.size(), kSpecs);
  std::size_t total_preemptions = 0;
  for (std::size_t i = 0; i < kSpecs; ++i) {
    std::string why;
    EXPECT_TRUE(results_equivalent(standalone[i], farm1[i], &why))
        << specs[i].name << " (standalone vs 1-worker): " << why << "\n"
        << specs[i].serialize();
    EXPECT_TRUE(results_equivalent(standalone[i], farmN[i], &why))
        << specs[i].name << " (standalone vs preempted): " << why << "\n"
        << specs[i].serialize();
    total_preemptions += farmN[i].preemptions;
  }
  // The (c) runs must actually have exercised the resume path, hard.
  EXPECT_GT(total_preemptions, kSpecs);
}

/// A GT-only job on the gated compiled engine: the harness jumps over
/// the stretch between the last delivery and the next submission.
JobSpec gt_only_spec(core::SchedulerKind scheduler, std::uint64_t seed) {
  JobSpec spec;
  spec.name = std::string("gt-only-") + core::scheduler_kind_name(scheduler);
  spec.name += '-';
  spec.name += std::to_string(seed);
  spec.net.width = 4;
  spec.net.height = 4;
  spec.net.topology = noc::Topology::kMesh;
  spec.scheduler = scheduler;
  spec.seed = seed;
  spec.cycles = 3000;
  spec.workload.fig1_gt = true;
  spec.workload.gt_period = 1200;
  spec.workload.verify_payload = true;
  return spec;
}

TEST(FarmDeterminism, GtOnlyJobPreemptedInsideAnIdleStretchResumesExactly) {
  const JobSpec spec = gt_only_spec(core::SchedulerKind::kCompiled, 11);
  const JobResult standalone = run_job_standalone(spec);
  ASSERT_EQ(standalone.status, JobStatus::kDone) << standalone.error;

  // The engine the job resumes on is a cached one that ran another job.
  core::SeqNocSimulation first(spec.net, effective_engine_options(spec, true));
  core::SeqNocSimulation second(spec.net, effective_engine_options(spec, true));
  {
    JobSpec other = gt_only_spec(core::SchedulerKind::kCompiled, 5);
    other.workload.fig1_gt = false;
    other.workload.be_load = 0.1;
    SimSession tenant(other);
    tenant.attach(second);
    tenant.advance(400);
    tenant.detach();
  }

  // Preempt at cycle 1000: the last 100 cycles of the slice were skipped,
  // so the cut falls inside an idle stretch (the next submissions start
  // at 1200).
  SimSession session(spec);
  session.attach(first);
  ASSERT_EQ(session.advance(900), 900u);
  const std::uint64_t skipped_before = first.engine().skipped_cycles();
  ASSERT_EQ(session.advance(100), 100u);
  EXPECT_EQ(first.engine().skipped_cycles() - skipped_before, 100u);
  session.detach();

  const std::uint64_t second_before = second.engine().skipped_cycles();
  session.attach(second, /*paranoid=*/true);
  while (!session.done()) {
    session.advance(spec.cycles);
  }
  EXPECT_GT(second.engine().skipped_cycles(), second_before);
  JobResult resumed;
  session.finalize(resumed);
  resumed.status = JobStatus::kDone;  // as run_job_standalone marks it
  std::string why;
  EXPECT_TRUE(results_equivalent(standalone, resumed, &why)) << why;
  EXPECT_GT(resumed.gt.delivered, 0u);
}

TEST(FarmDeterminism, GtOnlyJobsOnAPreemptingFarmMatchStandalone) {
  // Forced preemption every 450 cycles lands slice boundaries both in
  // busy and in skipped stretches, on whichever cached engine is free.
  std::vector<JobSpec> specs;
  for (const core::SchedulerKind k :
       {core::SchedulerKind::kCompiled, core::SchedulerKind::kWorklist,
        core::SchedulerKind::kRoundRobin}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      specs.push_back(gt_only_spec(k, seed));
    }
  }
  const auto farm = run_on_farm(specs, 2, /*force_preempt=*/true, 450);
  ASSERT_EQ(farm.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const JobResult standalone = run_job_standalone(specs[i]);
    std::string why;
    EXPECT_TRUE(results_equivalent(standalone, farm[i], &why))
        << specs[i].name << ": " << why;
    EXPECT_GT(farm[i].preemptions, 0u) << specs[i].name;
  }
}

}  // namespace
}  // namespace tmsim::farm
