// tmsim-farmd command-line units: --port, --workers and --queue take
// plain decimals in range, and anything else is a usage error. Pure
// parsing; no server is built.
#include "farmd/cli.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace tmsim::farmd {
namespace {

CliArgs parse(std::vector<std::string> args) {
  args.insert(args.begin(), "tmsim-farmd");
  std::vector<const char*> argv;
  for (const std::string& a : args) {
    argv.push_back(a.c_str());
  }
  return parse_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(FarmdCli, DefaultsWithoutArguments) {
  const CliArgs cli = parse({});
  ASSERT_EQ(cli.action, CliArgs::Action::kRun);
  EXPECT_EQ(cli.options.port, 0u);
  EXPECT_EQ(cli.options.farm.num_workers, 2u);
  EXPECT_EQ(cli.options.farm.queue_capacity, farm::FarmOptions{}.queue_capacity);
  EXPECT_EQ(cli.options.spill_dir, FarmdOptions{}.spill_dir);
}

TEST(FarmdCli, AcceptsEveryBound) {
  const CliArgs lo =
      parse({"--port", "0", "--workers", "1", "--queue", "1", "--spill-dir",
             "spill_here"});
  ASSERT_EQ(lo.action, CliArgs::Action::kRun) << lo.error;
  EXPECT_EQ(lo.options.port, 0u);
  EXPECT_EQ(lo.options.farm.num_workers, 1u);
  EXPECT_EQ(lo.options.farm.queue_capacity, 1u);
  EXPECT_EQ(lo.options.spill_dir, "spill_here");

  const CliArgs hi = parse({"--port", "65535", "--workers",
                            std::to_string(kMaxWorkers), "--queue",
                            "18446744073709551615"});
  ASSERT_EQ(hi.action, CliArgs::Action::kRun) << hi.error;
  EXPECT_EQ(hi.options.port, 65535u);
  EXPECT_EQ(hi.options.farm.num_workers, kMaxWorkers);
  EXPECT_EQ(hi.options.farm.queue_capacity, 18446744073709551615ull);
}

TEST(FarmdCli, RefusesOutOfRangeAndNonDecimalNumbers) {
  // std::atoi used to turn `--workers -1` into SIZE_MAX workers, `--queue
  // -1` into an unbounded queue and `--port 70000` into port 4464.
  const std::vector<std::vector<std::string>> bad = {
      {"--workers", "-1"},   {"--workers", "0"},
      {"--workers", std::to_string(kMaxWorkers + 1)},
      {"--workers", "2x"},   {"--workers", " 2"},
      {"--workers", "+2"},   {"--workers", "0x2"},
      {"--workers", ""},     {"--queue", "-1"},
      {"--queue", "0"},      {"--queue", "18446744073709551616"},
      {"--port", "70000"},   {"--port", "65536"},
      {"--port", "-1"},      {"--port", "80.0"},
  };
  for (const std::vector<std::string>& args : bad) {
    const CliArgs cli = parse(args);
    EXPECT_EQ(cli.action, CliArgs::Action::kUsageError)
        << args[0] << " '" << args[1] << "'";
    EXPECT_NE(cli.error.find(args[0]), std::string::npos) << cli.error;
  }
}

TEST(FarmdCli, RefusesUnknownOptionsAndMissingValues) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--threads", "2"}, {"--port"}, {"--workers", "2", "--queue"},
           {"7733"}}) {
    EXPECT_EQ(parse(args).action, CliArgs::Action::kUsageError) << args[0];
  }
}

TEST(FarmdCli, HelpWinsAndUsageNamesEveryOption) {
  EXPECT_EQ(parse({"--help"}).action, CliArgs::Action::kHelp);
  EXPECT_EQ(parse({"--port", "1", "-h"}).action, CliArgs::Action::kHelp);
  const std::string usage = usage_text("tmsim-farmd");
  for (const std::string& word :
       {std::string("--port"), std::string("--workers"), std::string("--queue"),
        std::string("--spill-dir"), std::string("65535"),
        std::to_string(kMaxWorkers)}) {
    EXPECT_NE(usage.find(word), std::string::npos) << word;
  }
}

}  // namespace
}  // namespace tmsim::farmd
