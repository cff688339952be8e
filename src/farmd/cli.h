// tmsim-farmd's command line, parsed strictly into FarmdOptions. Every
// number is plain decimal (no sign, no spaces, no 0x prefix) and must
// lie in its option's range; anything else is a usage error, never a
// wrapped or negative-turned-huge value.
#pragma once

#include <cstddef>
#include <string>

#include "farmd/server.h"

namespace tmsim::farmd {

/// Most farm workers one daemon starts. Each worker is a thread with its
/// own engine cache.
inline constexpr std::size_t kMaxWorkers = 64;

struct CliArgs {
  enum class Action { kRun, kHelp, kUsageError };
  Action action = Action::kRun;
  /// The daemon's options (kRun only): 2 workers unless --workers says
  /// otherwise, the farm's default queue capacity unless --queue does.
  FarmdOptions options;
  /// Why the command line was refused (kUsageError only).
  std::string error;
};

/// Parses argv[1..argc):
///   --port N       0..65535 (0 = ephemeral)
///   --workers N    1..kMaxWorkers
///   --queue N      >= 1
///   --spill-dir P
///   --help / -h
CliArgs parse_cli(int argc, const char* const* argv);

/// The usage text, for --help and after a usage error.
std::string usage_text(const std::string& argv0);

}  // namespace tmsim::farmd
