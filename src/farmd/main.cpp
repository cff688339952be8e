// tmsim-farmd: the networked front-end to one simulation farm. Binds a
// loopback listener, serves the wire protocol (DESIGN.md §16), and
// drains gracefully on SIGINT/SIGTERM — every accepted job resolves and
// connected subscribers receive their remaining results before exit.
#include <csignal>
#include <cstdio>
#include <semaphore>

#include "farmd/cli.h"
#include "farmd/server.h"
#include "obs/metrics.h"

namespace {

// Signal → main-thread handoff. A semaphore is async-signal-safe enough
// for this use (release is a futex post on Linux).
std::binary_semaphore g_stop{0};

void on_signal(int) { g_stop.release(); }

}  // namespace

int main(int argc, char** argv) {
  const tmsim::farmd::CliArgs cli = tmsim::farmd::parse_cli(argc, argv);
  if (cli.action != tmsim::farmd::CliArgs::Action::kRun) {
    if (!cli.error.empty()) {
      std::fprintf(stderr, "tmsim-farmd: %s\n", cli.error.c_str());
    }
    std::fputs(tmsim::farmd::usage_text(argv[0]).c_str(), stderr);
    return cli.action == tmsim::farmd::CliArgs::Action::kHelp ? 0 : 2;
  }
  tmsim::farmd::FarmdOptions opt = cli.options;

  tmsim::obs::MetricsRegistry metrics;
  opt.farm.metrics = &metrics;
  try {
    tmsim::farmd::FarmdServer server(opt);
    std::printf("tmsim-farmd listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    g_stop.acquire();

    std::printf("tmsim-farmd draining...\n");
    std::fflush(stdout);
    server.shutdown();
    std::printf("tmsim-farmd stopped\n%s\n", server.ingress_json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tmsim-farmd: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
