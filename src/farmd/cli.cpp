#include "farmd/cli.h"

#include <cstdint>
#include <limits>
#include <utility>

#include "common/parse.h"

namespace tmsim::farmd {

CliArgs parse_cli(int argc, const char* const* argv) {
  CliArgs out;
  out.options.farm.num_workers = 2;
  const auto refuse = [&out](std::string why) {
    out.action = CliArgs::Action::kUsageError;
    out.error = std::move(why);
    return out;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      out.action = CliArgs::Action::kHelp;
      return out;
    }
    if (arg != "--port" && arg != "--workers" && arg != "--queue" &&
        arg != "--spill-dir") {
      return refuse("unknown option " + arg);
    }
    if (i + 1 >= argc) {
      return refuse(arg + " needs a value");
    }
    const std::string val = argv[++i];
    const auto out_of_range = [&](const std::string& expected) {
      return refuse(arg + " " + val + ": expected a decimal " + expected);
    };
    if (arg == "--port") {
      const auto n =
          parse_decimal(val, 0, std::numeric_limits<std::uint16_t>::max());
      if (!n) {
        return out_of_range("in 0..65535");
      }
      out.options.port = static_cast<std::uint16_t>(*n);
    } else if (arg == "--workers") {
      const auto n = parse_decimal(val, 1, kMaxWorkers);
      if (!n) {
        return out_of_range("in 1.." + std::to_string(kMaxWorkers));
      }
      out.options.farm.num_workers = static_cast<std::size_t>(*n);
    } else if (arg == "--queue") {
      const auto n =
          parse_decimal(val, 1, std::numeric_limits<std::size_t>::max());
      if (!n) {
        return out_of_range(">= 1");
      }
      out.options.farm.queue_capacity = static_cast<std::size_t>(*n);
    } else {
      out.options.spill_dir = val;
    }
  }
  return out;
}

std::string usage_text(const std::string& argv0) {
  return "usage: " + argv0 +
         " [--port N] [--workers N] [--queue N] [--spill-dir PATH]\n"
         "  --port N       listen port on 127.0.0.1, 0..65535 (default 0 = "
         "ephemeral)\n"
         "  --workers N    farm worker threads, 1.." +
         std::to_string(kMaxWorkers) +
         " (default 2)\n"
         "  --queue N      admission queue capacity, >= 1 (default 64)\n"
         "  --spill-dir P  spill segment directory (default farmd_spill)\n";
}

}  // namespace tmsim::farmd
