// ocular_fleet — replicated-serving front tier for OCuLaR daemons.
//
// Proxies the newline-JSON serving protocol onto N `ocular_served`
// replicas over keep-alive loopback TCP: rendezvous-hash routing on
// `user`, per-replica health probing with ejection/readmission, one
// bounded failover retry, optional hedged requests, and 503 shedding in
// both directions (see src/serving/fleet.h and the "Running a fleet"
// runbook in docs/OPERATIONS.md).
//
// Two ways to get replicas:
//   attach:  ocular_fleet --port=7700 --replicas=7701,7702,7703
//   spawn:   ocular_fleet --port=7700 --spawn=3 \
//                --served=./ocular_served --models=default=/models/b2b.oclr
// Spawned replicas are SIGTERM-drained (then SIGKILLed if stubborn) when
// the fleet exits. SIGTERM to the fleet itself drains the front door
// gracefully and prints a final stats line.

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/strings.h"
#include "serving/fleet.h"

namespace ocular {
namespace {

constexpr char kUsage[] = R"(usage: ocular_fleet --port=N
        (--replicas=P1,P2[,...] | --spawn=N --served=PATH --models=SPEC
         [--datasets=SPEC] [--journal=0|1] [--base-port=N]
         [--replica-workers=N])
        [--workers=N] [--accept-queue=N] [--io-timeout-ms=N]
        [--hedge-after-ms=N] [--probe-interval-ms=N] [--retry-after-ms=N]
        [--fail-threshold=N] [--reopen-after-ms=N]

Front-tier proxy over N ocular_served replicas on 127.0.0.1. Attach to
replicas already running with --replicas, or spawn them with --spawn
(flags --served/--models/--datasets/--journal are passed through; ports
are --base-port, --base-port+1, ...). `recommend`/`models` and unknown
verbs are forwarded (consistent-hashed on "user"); `ping` and `stats`
answer for the fleet itself; `update`/`reload` are refused — apply them
to each replica directly or the fleet's models fork. --hedge-after-ms=N
sends a second copy of a request whose primary is silent after N ms and
takes the first reply (0 = off). SIGTERM drains gracefully.
)";

std::vector<pid_t> g_children;

void ReapChildren() {
  // Drain politely first; a replica that ignores SIGTERM for 5s gets
  // SIGKILL — the fleet must never hang in its own exit path.
  for (const pid_t pid : g_children) ::kill(pid, SIGTERM);
  for (const pid_t pid : g_children) {
    for (int tick = 0; tick < 500; ++tick) {
      if (::waitpid(pid, nullptr, WNOHANG) == pid) {
        goto next_child;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  next_child:;
  }
  g_children.clear();
}

/// fork/execs one ocular_served replica on `port`, passing the model
/// flags through. Returns false when the exec setup fails.
bool SpawnReplica(const std::string& served, const Flags& flags,
                  uint16_t port) {
  std::vector<std::string> args;
  args.push_back(served);
  args.push_back("--models=" + flags.GetString("models"));
  if (flags.Has("datasets")) {
    args.push_back("--datasets=" + flags.GetString("datasets"));
  }
  if (flags.Has("delimiter")) {
    args.push_back("--delimiter=" + flags.GetString("delimiter"));
  }
  args.push_back("--journal=" + std::string(flags.GetBool("journal", true)
                                                ? "1"
                                                : "0"));
  // Replicas multiplex every connection on one epoll IO thread, so idle
  // keep-alive connections (the fleet's pinned front-tier sockets, the
  // health prober) cost no worker at all — workers only size request
  // compute. Match the CPU instead of the old `front workers + 2` rule,
  // which oversubscribed cores on small machines and never helped probes
  // anyway. --replica-workers overrides the derived default.
  const int64_t hw = static_cast<int64_t>(std::thread::hardware_concurrency());
  args.push_back("--workers=" +
                 std::to_string(flags.GetInt("replica-workers",
                                             hw > 0 ? hw : 1)));
  args.push_back("--port=" + std::to_string(port));
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return false;
  }
  if (pid == 0) {
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execvp(argv[0], argv.data());
    std::fprintf(stderr, "exec %s: %s\n", served.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  g_children.push_back(pid);
  return true;
}

/// Blocks until something accepts on 127.0.0.1:`port` (or ~10s pass).
/// Polls every 1 ms: a replica is ready within milliseconds, so a coarser
/// tick would round every fleet cold start up to it.
bool WaitForPort(uint16_t port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  for (int tick = 0; tick < 10000; ++tick) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0 &&
        ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      ::close(fd);
      return true;
    }
    if (fd >= 0) ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

int Run(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const int64_t port = flags.GetInt("port", 0);
  if (port < 1 || port > 65535) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  std::vector<uint16_t> replicas;
  const int64_t spawn = flags.GetInt("spawn", 0);
  if (spawn > 0) {
    if (spawn > 64 || !flags.Has("served") || !flags.Has("models")) {
      std::fprintf(stderr, "%s", kUsage);
      return 2;
    }
    const int64_t base_port = flags.GetInt("base-port", port + 1);
    if (base_port < 1 || base_port + spawn - 1 > 65535) {
      std::fprintf(stderr, "--base-port leaves no room for %lld replicas\n",
                   static_cast<long long>(spawn));
      return 2;
    }
    const std::string served = flags.GetString("served");
    for (int64_t i = 0; i < spawn; ++i) {
      const uint16_t p = static_cast<uint16_t>(base_port + i);
      if (!SpawnReplica(served, flags, p)) {
        ReapChildren();
        return 1;
      }
      replicas.push_back(p);
    }
    for (const uint16_t p : replicas) {
      if (!WaitForPort(p)) {
        std::fprintf(stderr, "replica on 127.0.0.1:%u never came up\n", p);
        ReapChildren();
        return 1;
      }
    }
  } else if (flags.Has("replicas")) {
    for (std::string_view part : Split(flags.GetString("replicas"), ',')) {
      int value = 0;
      for (const char c : part) {
        if (c < '0' || c > '9') {
          value = -1;
          break;
        }
        value = value * 10 + (c - '0');
        if (value > 65535) break;
      }
      if (value < 1 || value > 65535) {
        std::fprintf(stderr, "bad replica port '%.*s'\n",
                     static_cast<int>(part.size()), part.data());
        return 2;
      }
      replicas.push_back(static_cast<uint16_t>(value));
    }
  }
  if (replicas.empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  FleetServer::Options options;
  options.replicas = replicas;
  const int64_t workers = flags.GetInt("workers", 4);
  if (workers < 1 || workers > 4096) {
    std::fprintf(stderr, "--workers must be in [1, 4096]\n");
    return 1;
  }
  options.num_workers = static_cast<size_t>(workers);
  const int64_t accept_queue = flags.GetInt("accept-queue", 128);
  if (accept_queue < 1 || accept_queue > 1 << 20) {
    std::fprintf(stderr, "--accept-queue must be in [1, 1048576]\n");
    return 1;
  }
  options.accept_queue = static_cast<size_t>(accept_queue);
  const int64_t io_timeout_ms = flags.GetInt("io-timeout-ms", 1000);
  if (io_timeout_ms < 1 || io_timeout_ms > 3600000) {
    std::fprintf(stderr, "--io-timeout-ms must be in [1, 3600000]\n");
    return 1;
  }
  options.io_timeout_ms = static_cast<uint32_t>(io_timeout_ms);
  const int64_t hedge_after_ms = flags.GetInt("hedge-after-ms", 0);
  if (hedge_after_ms < 0 || hedge_after_ms > 3600000) {
    std::fprintf(stderr, "--hedge-after-ms must be in [0, 3600000]\n");
    return 1;
  }
  options.hedge_after_ms = static_cast<uint32_t>(hedge_after_ms);
  const int64_t probe_interval_ms = flags.GetInt("probe-interval-ms", 200);
  if (probe_interval_ms < 10 || probe_interval_ms > 60000) {
    std::fprintf(stderr, "--probe-interval-ms must be in [10, 60000]\n");
    return 1;
  }
  options.probe_interval_ms = static_cast<uint32_t>(probe_interval_ms);
  const int64_t retry_after_ms = flags.GetInt("retry-after-ms", 100);
  if (retry_after_ms < 1 || retry_after_ms > 60000) {
    std::fprintf(stderr, "--retry-after-ms must be in [1, 60000]\n");
    return 1;
  }
  options.retry_after_ms = static_cast<uint32_t>(retry_after_ms);
  const int64_t fail_threshold = flags.GetInt("fail-threshold", 3);
  if (fail_threshold < 1 || fail_threshold > 1000) {
    std::fprintf(stderr, "--fail-threshold must be in [1, 1000]\n");
    return 1;
  }
  options.health.fail_threshold = static_cast<uint32_t>(fail_threshold);
  const int64_t reopen_after_ms = flags.GetInt("reopen-after-ms", 500);
  if (reopen_after_ms < 10 || reopen_after_ms > 600000) {
    std::fprintf(stderr, "--reopen-after-ms must be in [10, 600000]\n");
    return 1;
  }
  options.health.reopen_after_ms = static_cast<uint32_t>(reopen_after_ms);

  FleetServer fleet(options);
  LineServer::InstallShutdownSignalHandler();
  ::signal(SIGPIPE, SIG_IGN);

  std::string replica_list;
  for (const uint16_t p : replicas) {
    if (!replica_list.empty()) replica_list += ",";
    replica_list += std::to_string(p);
  }
  std::fprintf(stderr,
               "fleet on 127.0.0.1:%lld over replicas [%s] with %zu workers"
               "%s (SIGTERM drains)\n",
               static_cast<long long>(port), replica_list.c_str(),
               options.num_workers,
               options.hedge_after_ms > 0 ? ", hedging on" : "");
  const Status st = fleet.RunLoop(static_cast<uint16_t>(port));
  ReapChildren();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ocular

int main(int argc, char** argv) { return ocular::Run(argc, argv); }
