// sweep-serve: the sweep daemon as a foreground CLI (DESIGN.md §5g).
//
// Usage:
//   sweep_serve [--socket PATH] [--cache-dir DIR] [--jobs N] [sweep flags]
//   sweep_serve --drain [--socket PATH]     ask a running daemon to drain
//   sweep_serve --stats [--socket PATH]     print a running daemon's counters
//   sweep_serve --ping  [--socket PATH]     liveness probe
//
// Default mode runs the daemon in the foreground on --socket (default:
// $BRIDGE_SERVE_SOCKET or build/sweep-serve.sock) until SIGTERM/SIGINT or a
// client `shutdown` frame. Shutdown is always graceful: in-flight jobs run
// to completion and the final lifetime RunReport is printed before exit.
// The failure-policy flags shared with every bench driver (--retries,
// --timeout, --strict, --no-cache) configure the daemon's engine, and
// therefore its policySignature() — clients with a different policy are
// refused at handshake.
//
// The daemon is elastic (DESIGN §5h): `sweep_worker` processes may attach
// over the same socket, upgrade to bridge-serve-2, and pull admitted jobs
// under leases. --stats negotiates the upgrade too and prints the elastic
// counters (workers, claimed, leases expired, orphans re-admitted) when the
// daemon grants it, falling back to the v1 counter line against an older
// daemon.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/daemon.h"
#include "sweep/sweep.h"

namespace {

volatile std::sig_atomic_t g_signal = 0;
void onSignal(int) { g_signal = 1; }

using bridge::RunReport;
using bridge::SweepCli;
using bridge::serve::DaemonOptions;
using bridge::serve::ServeClient;
using bridge::serve::ServeStats;
using bridge::serve::SweepDaemon;

std::string elasticSummary(const ServeStats& stats) {
  return std::to_string(stats.workers) + " workers, " +
         std::to_string(stats.claimed) + " claimed (" +
         std::to_string(stats.completed_remote) + " completed remote, " +
         std::to_string(stats.leases_expired) + " leases expired, " +
         std::to_string(stats.orphans_readmitted) + " orphans re-admitted)";
}

int serveForever(const DaemonOptions& options) {
  SweepDaemon daemon(options);
  std::string error;
  if (!daemon.start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  // Signal handlers only set a flag (requestStop takes locks and is not
  // async-signal-safe); the foreground loop polls it.
  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);
  std::printf("sweep-serve: listening on %s (%u workers, policy %s)\n",
              daemon.socketPath().c_str(), daemon.engine().workers(),
              daemon.policySignature().c_str());
  std::fflush(stdout);
  while (g_signal == 0 && !daemon.stopping()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  daemon.requestStop();
  daemon.join();
  const ServeStats stats = daemon.stats();
  std::printf("sweep-serve: drained; %s\n", stats.summary().c_str());
  std::printf("sweep-serve: elastic: %s\n", elasticSummary(stats).c_str());
  std::printf("sweep-serve: final report: %s\n",
              stats.report.summary().c_str());
  return 0;
}

int drainDaemon(const std::string& socket) {
  ServeClient client(socket);
  const RunReport report = client.shutdownDaemon();
  std::printf("sweep-serve: daemon on %s drained; final report: %s\n",
              socket.c_str(), report.summary().c_str());
  return 0;
}

int printStats(const std::string& socket) {
  ServeStats stats;
  bool elastic = false;
  try {
    // Upgrade in band: a v2 daemon serializes the elastic counters on a
    // negotiated connection.
    ServeClient client(socket);
    client.negotiate("client", /*policy=*/"", "sweep-serve-stats");
    stats = client.stats();
    elastic = true;
  } catch (const std::exception&) {
    // A v1-only daemon answers `error` to the hello frame and drops the
    // connection; reconnect and speak plain bridge-serve-1.
    ServeClient client(socket);
    stats = client.stats();
  }
  std::printf("sweep-serve %s: %s\n", socket.c_str(),
              stats.summary().c_str());
  if (elastic) {
    std::printf("sweep-serve %s: elastic: %s\n", socket.c_str(),
                elasticSummary(stats).c_str());
  }
  std::printf("sweep-serve %s: report: %s\n", socket.c_str(),
              stats.report.summary().c_str());
  return 0;
}

int pingDaemon(const std::string& socket) {
  ServeClient client(socket);
  client.ping();
  std::printf("sweep-serve: daemon on %s is alive (policy %s, %llu workers)\n",
              socket.c_str(), client.hello().policy.c_str(),
              static_cast<unsigned long long>(client.hello().workers));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SweepCli cli = SweepCli::parse(argc, argv);

  std::string socket;
  bool drain = false, stats = false, ping = false;
  const std::vector<std::string> rest = std::move(cli.rest);
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const std::string& arg = rest[i];
    const auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= rest.size()) {
        std::fprintf(stderr, "error: %s requires a value\n", flag);
        std::exit(2);
      }
      return rest[++i];
    };
    if (arg == "--socket") {
      socket = value("--socket");
    } else if (arg.rfind("--socket=", 0) == 0) {
      socket = arg.substr(9);
    } else if (arg == "--cache-dir") {
      cli.options.cache_dir = value("--cache-dir");
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      cli.options.cache_dir = arg.substr(12);
    } else if (arg == "--drain") {
      drain = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--ping") {
      ping = true;
    } else if (arg == "--help") {
      std::printf(
          "usage: sweep_serve [--socket PATH] [--cache-dir DIR] [--jobs N]\n"
          "                   [--retries N] [--timeout S] [--strict] "
          "[--no-cache]\n"
          "       sweep_serve --drain|--stats|--ping [--socket PATH]\n");
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }

  if (socket.empty()) socket = SweepDaemon::defaultSocketPath();

  try {
    if (drain) return drainDaemon(socket);
    if (stats) return printStats(socket);
    if (ping) return pingDaemon(socket);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  DaemonOptions options;
  options.socket_path = socket;
  options.sweep = cli.options;
  options.sweep.serve_socket.clear();  // the daemon executes locally
  return serveForever(options);
}
