#include "obs/vcd.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/example_blocks.h"
#include "core/sequential_simulator.h"
#include "obs/engine_sinks.h"

namespace tmsim::obs {
namespace {

BitVector val(std::size_t width, std::uint64_t v) {
  BitVector b(width);
  b.set_field(0, width, v);
  return b;
}

std::string tiny_dump() {
  std::ostringstream os;
  VcdWriter w(os);
  const auto a = w.add_signal("bus a", 8);  // space must become '_'
  const auto b = w.add_signal("clk", 1);
  w.write_header();
  w.begin_time(0);
  w.change(a, val(8, 0x42));
  w.change_u64(b, 1);
  w.begin_time(1);
  w.change(a, val(8, 0x42));  // unchanged: must not be re-emitted
  w.change_u64(b, 0);
  return os.str();
}

TEST(VcdWriter, ProducesValidatableOutput) {
  const std::string dump = tiny_dump();
  EXPECT_NE(dump.find("$timescale"), std::string::npos);
  EXPECT_NE(dump.find("bus_a"), std::string::npos);  // whitespace replaced
  EXPECT_NE(dump.find("$dumpvars"), std::string::npos);
  std::istringstream is(dump);
  const auto err = vcd_validate(is);
  EXPECT_FALSE(err.has_value()) << *err;
}

TEST(VcdWriter, DeduplicatesUnchangedValues) {
  const std::string dump = tiny_dump();
  // The 8-bit vector 0x42 appears once in $dumpvars-adjacent init is x,
  // then exactly once as a change at #0 — not again at #1.
  std::size_t n = 0;
  for (std::size_t pos = dump.find("b01000010");
       pos != std::string::npos; pos = dump.find("b01000010", pos + 1)) {
    ++n;
  }
  EXPECT_EQ(n, 1u);
}

TEST(VcdValidate, RejectsMalformedStreams) {
  {
    std::istringstream is("this is not a vcd file");
    EXPECT_TRUE(vcd_validate(is).has_value());
  }
  {
    // Value change for an undeclared identifier code.
    std::istringstream is(
        "$timescale 1 ns $end\n$scope module top $end\n"
        "$var wire 1 ! clk $end\n$upscope $end\n$enddefinitions $end\n"
        "#0\n1@\n");
    EXPECT_TRUE(vcd_validate(is).has_value());
  }
  {
    // Non-increasing timesteps.
    std::istringstream is(
        "$timescale 1 ns $end\n$scope module top $end\n"
        "$var wire 1 ! clk $end\n$upscope $end\n$enddefinitions $end\n"
        "#5\n1!\n#5\n0!\n");
    EXPECT_TRUE(vcd_validate(is).has_value());
  }
  // Signed or overflowing numbers: a width of -1 or +1, a timestep of
  // -1 or 2^64 would otherwise decode to a different number than the
  // file spells.
  for (const char* width : {"-1", "+1", "18446744073709551616"}) {
    SCOPED_TRACE(width);
    std::istringstream is(std::string("$scope module top $end\n$var wire ") +
                          width + " ! clk $end\n$upscope $end\n"
                                  "$enddefinitions $end\n#0\n1!\n");
    EXPECT_TRUE(vcd_validate(is).has_value());
  }
  for (const char* step : {"#-1", "#+1", "#18446744073709551616"}) {
    SCOPED_TRACE(step);
    std::istringstream is(std::string("$scope module top $end\n"
                                      "$var wire 1 ! clk $end\n$upscope $end\n"
                                      "$enddefinitions $end\n") +
                          step + "\n1!\n");
    EXPECT_TRUE(vcd_validate(is).has_value());
  }
}

TEST(VcdDiff, IdenticalStreamsDoNotDiverge) {
  const std::string dump = tiny_dump();
  std::istringstream a(dump), b(dump);
  const VcdDivergence d = vcd_diff(a, b);
  EXPECT_FALSE(d.diverged);
  EXPECT_TRUE(d.only_in_a.empty());
  EXPECT_TRUE(d.only_in_b.empty());
}

TEST(VcdDiff, NamesFirstDivergentSignalAndTime) {
  std::ostringstream osa, osb;
  for (std::ostringstream* os : {&osa, &osb}) {
    VcdWriter w(*os);
    const auto s = w.add_signal("data", 4);
    const auto t = w.add_signal("flag", 1);
    w.write_header();
    w.begin_time(0);
    w.change(s, val(4, 1));
    w.change_u64(t, 0);
    w.begin_time(3);
    // The two dumps part ways at time 3 on `data` only.
    w.change(s, val(4, os == &osa ? 5 : 9));
    w.change_u64(t, 1);
  }
  std::istringstream a(osa.str()), b(osb.str());
  const VcdDivergence d = vcd_diff(a, b);
  ASSERT_TRUE(d.diverged);
  EXPECT_EQ(d.time, 3u);
  EXPECT_EQ(d.signal, "data");
  EXPECT_NE(d.value_a, d.value_b);
  EXPECT_NE(d.summary().find("data"), std::string::npos);
}

TEST(VcdDiff, ReportsSignalSetMismatch) {
  std::ostringstream osa, osb;
  {
    VcdWriter w(osa);
    const auto s = w.add_signal("common", 1);
    w.add_signal("extra_a", 1);
    w.write_header();
    w.begin_time(0);
    w.change_u64(s, 1);
  }
  {
    VcdWriter w(osb);
    const auto s = w.add_signal("common", 1);
    w.write_header();
    w.begin_time(0);
    w.change_u64(s, 1);
  }
  std::istringstream a(osa.str()), b(osb.str());
  const VcdDivergence d = vcd_diff(a, b);
  EXPECT_FALSE(d.diverged);  // the intersection agrees
  ASSERT_EQ(d.only_in_a.size(), 1u);
  EXPECT_EQ(d.only_in_a[0], "extra_a");
  EXPECT_TRUE(d.only_in_b.empty());
}

// --- VcdTracer against a real engine ---------------------------------------

/// Fig. 2-style registered ring: deterministic, converges every cycle.
struct RegRing {
  RegRing() {
    for (int i = 0; i < 3; ++i) {
      blocks.push_back(model.add_block(
          std::make_shared<core::examples::RegAdderBlock>(16, i + 1),
          "F" + std::to_string(i + 1)));
      links.push_back(model.add_link("R" + std::to_string(i + 1), 16,
                                     core::LinkKind::kRegistered));
    }
    for (int i = 0; i < 3; ++i) {
      model.bind_output(blocks[i], 0, links[i]);
      model.bind_input(blocks[(i + 1) % 3], 0, links[i]);
    }
    model.finalize();
  }
  core::SystemModel model;
  std::vector<core::BlockId> blocks;
  std::vector<core::LinkId> links;
};

TEST(VcdTracer, StreamingDumpIsValidAndCoversEveryCycle) {
  RegRing ring;
  core::SequentialSimulator sim(ring.model, core::SchedulePolicy::kStatic);
  std::ostringstream os;
  VcdTracerOptions opts;
  opts.link_glob = "R*";
  VcdTracer tracer(ring.model, os, opts);
  EXPECT_EQ(tracer.num_signals(), 3u);
  sim.set_observer(&tracer);
  for (int i = 0; i < 5; ++i) {
    sim.step();
  }
  const std::string dump = os.str();
  std::istringstream is(dump);
  const auto err = vcd_validate(is);
  EXPECT_FALSE(err.has_value()) << *err;
  for (const char* t : {"#0", "#1", "#2", "#3", "#4"}) {
    EXPECT_NE(dump.find(std::string(t) + "\n"), std::string::npos) << t;
  }
  // The bookkeeping signals ride along.
  EXPECT_NE(dump.find("sim.delta_cycles"), std::string::npos);
  EXPECT_NE(dump.find("sim.settle_rounds"), std::string::npos);
}

TEST(VcdTracer, GlobSelectsSubsetOfSignals) {
  {
    // Stateless blocks never yield .state signals, whatever the glob.
    RegRing ring;
    std::ostringstream os;
    VcdTracerOptions opts;
    opts.link_glob = "R1";
    opts.block_glob = "F*";
    VcdTracer tracer(ring.model, os, opts);
    EXPECT_EQ(tracer.num_signals(), 1u);  // just the one link
  }
  {
    // Stateful blocks (PipeBlock) are selectable by block_glob.
    core::SystemModel m;
    std::vector<core::LinkId> links;
    for (int i = 0; i < 2; ++i) {
      links.push_back(m.add_link("L" + std::to_string(i), 8,
                                 core::LinkKind::kRegistered));
    }
    for (int i = 0; i < 2; ++i) {
      const core::BlockId b = m.add_block(
          std::make_shared<core::examples::PipeBlock>(8, i + 1),
          "P" + std::to_string(i));
      m.bind_output(b, 0, links[i]);
      m.bind_input(b, 0, links[(i + 1) % 2]);
    }
    m.finalize();
    std::ostringstream os;
    VcdTracerOptions opts;
    opts.link_glob = "L0";
    opts.block_glob = "P*";
    VcdTracer tracer(m, os, opts);
    EXPECT_EQ(tracer.num_signals(), 1u + 2u);  // one link, two block states
  }
}

TEST(VcdTracer, RingModeDumpsLastCyclesOnConvergenceFailure) {
  // Oscillating combinational NOT-ring: the dynamic schedule gives up
  // and the tracer must flush its ring — the last N cycles plus the
  // final unsettled sample — automatically.
  core::SystemModel m;
  std::vector<core::BlockId> blocks;
  std::vector<core::LinkId> links;
  for (int i = 0; i < 3; ++i) {
    blocks.push_back(m.add_block(
        std::make_shared<core::examples::NotBlock>(),
        "n" + std::to_string(i)));
    links.push_back(m.add_link("l" + std::to_string(i), 1,
                               core::LinkKind::kCombinational));
  }
  for (int i = 0; i < 3; ++i) {
    m.bind_output(blocks[i], 0, links[i]);
    m.bind_input(blocks[(i + 1) % 3], 0, links[i]);
  }
  m.finalize();
  core::SequentialSimulator sim(m, core::SchedulePolicy::kDynamic,
                                /*max_evals=*/16);
  std::ostringstream os;
  VcdTracerOptions opts;
  opts.ring_cycles = 4;
  VcdTracer tracer(m, os, opts);
  sim.set_observer(&tracer);
  EXPECT_TRUE(os.str().empty());  // ring mode: nothing until flush
  EXPECT_THROW(sim.step(), core::ConvergenceError);
  const std::string dump = os.str();
  ASSERT_FALSE(dump.empty());  // auto-flushed by the failure hook
  std::istringstream is(dump);
  const auto err = vcd_validate(is);
  EXPECT_FALSE(err.has_value()) << *err;
  // The failing cycle (0) appears as the final sample.
  EXPECT_NE(dump.find("#0\n"), std::string::npos);
  // Flushing again must not duplicate the dump.
  tracer.flush();
  EXPECT_EQ(os.str(), dump);
}

TEST(VcdTracer, RingModeKeepsOnlyLastNCycles) {
  RegRing ring;
  core::SequentialSimulator sim(ring.model, core::SchedulePolicy::kStatic);
  std::ostringstream os;
  VcdTracerOptions opts;
  opts.ring_cycles = 3;
  VcdTracer tracer(ring.model, os, opts);
  sim.set_observer(&tracer);
  for (int i = 0; i < 10; ++i) {
    sim.step();
  }
  EXPECT_EQ(tracer.ring_size(), 3u);
  tracer.flush();
  const std::string dump = os.str();
  std::istringstream is(dump);
  EXPECT_FALSE(vcd_validate(is).has_value());
  // Only cycles 7, 8, 9 survive.
  EXPECT_EQ(dump.find("#0\n"), std::string::npos);
  EXPECT_EQ(dump.find("#6\n"), std::string::npos);
  EXPECT_NE(dump.find("#7\n"), std::string::npos);
  EXPECT_NE(dump.find("#9\n"), std::string::npos);
}

TEST(VcdDiff, TracerDumpsFromTwoEnginesOverSameModelAreIdentical) {
  // The differential-harness use case: static and dynamic schedules on
  // the same registered model must produce byte-identical waveforms.
  RegRing r1, r2;
  std::ostringstream os1, os2;
  VcdTracer t1(r1.model, os1), t2(r2.model, os2);
  core::SequentialSimulator s1(r1.model, core::SchedulePolicy::kStatic);
  core::SequentialSimulator s2(r2.model, core::SchedulePolicy::kDynamic);
  s1.set_observer(&t1);
  s2.set_observer(&t2);
  for (int i = 0; i < 8; ++i) {
    s1.step();
    s2.step();
  }
  std::istringstream a(os1.str()), b(os2.str());
  const VcdDivergence d = vcd_diff(a, b);
  EXPECT_FALSE(d.diverged) << d.summary();
}

}  // namespace
}  // namespace tmsim::obs
