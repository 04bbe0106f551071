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
#include "serving/fleet.h"

namespace ocular {
namespace {

const FlagTable kFleetFlags = {
    "ocular_fleet",
    "Front-tier proxy over N ocular_served replicas on 127.0.0.1: attach to\n"
    "running replicas with --replicas, or spawn them with --spawn and\n"
    "--served (ports --base-port, --base-port+1, ...). `recommend`, `models`\n"
    "and unknown verbs are forwarded, consistent-hashed on \"user\"; `ping`\n"
    "and `stats` answer for the fleet; `update`/`reload` are refused (apply\n"
    "them to each replica). SIGTERM drains gracefully.",
    {IntFlag("port", 1, 65535, "", "front-door port on 127.0.0.1 (required)"),
     IntListFlag("replicas", 1, 65535,
                 "ports of running replicas to attach to"),
     IntFlag("spawn", 0, 64, "0",
             "replicas to spawn; 0 attaches to --replicas instead"),
     StringFlag("served", "", "ocular_served binary to spawn (spawn mode)"),
     StringFlag("models", "", "--models of each spawned replica"),
     StringFlag("datasets", "", "--datasets of each spawned replica"),
     CharFlag("delimiter", '\t', "--delimiter of each spawned replica"),
     BoolFlag("journal", true, "--journal of each spawned replica"),
     IntFlag("base-port", 1, 65535, "",
             "first spawned replica's port (default --port + 1)"),
     IntFlag("replica-workers", 0, 4096, "0",
             "--workers of each spawned replica; 0 = one per usable CPU"),
     IntFlag("workers", 1, 4096, "4", "front-tier proxy threads"),
     IntFlag("accept-queue", 1, 1 << 20, "128",
             "requests queued from the IO thread to the proxy threads"),
     IntFlag("io-timeout-ms", 1, 3600000, "1000",
             "deadline tick and replica IO deadline"),
     IntFlag("hedge-after-ms", 0, 3600000, "0",
             "send a second copy of a request whose primary is silent this "
             "long and take the first reply; 0 = off"),
     IntFlag("probe-interval-ms", 10, 60000, "200",
             "health probe period per replica"),
     IntFlag("retry-after-ms", 1, 60000, "100",
             "backoff hint in 503 shed replies"),
     IntFlag("fail-threshold", 1, 1000, "3",
             "consecutive failures that eject a replica"),
     IntFlag("reopen-after-ms", 10, 600000, "500",
             "ejected replica's wait before a readmission probe")}};

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
  args.push_back("--models=" + flags.String("models"));
  if (flags.Has("datasets")) {
    args.push_back("--datasets=" + flags.String("datasets"));
  }
  args.push_back("--delimiter=" + std::string(1, flags.Char("delimiter")));
  args.push_back(std::string("--journal=") +
                 (flags.Bool("journal") ? "1" : "0"));
  // Replicas multiplex every connection on one epoll IO thread, so idle
  // keep-alive connections (the fleet's pinned front-tier sockets, the
  // health prober) cost no worker at all — workers only size request
  // compute, and the replica's own --workers=0 sizes them to the CPUs of
  // its affinity mask.
  args.push_back("--workers=" +
                 std::to_string(flags.Int("replica-workers")));
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
  const Flags flags = ParseFlagsOrExit(kFleetFlags, argc, argv);
  if (!flags.Has("port")) return PrintUsage(kFleetFlags);
  const auto port = flags.Int<uint16_t>("port");

  std::vector<uint16_t> replicas;
  const auto spawn = flags.Int<uint32_t>("spawn");
  if (spawn > 0) {
    if (!flags.Has("served") || !flags.Has("models")) {
      return PrintUsage(kFleetFlags);
    }
    const int64_t base_port =
        flags.Has("base-port") ? flags.Int("base-port") : port + 1;
    if (base_port + spawn - 1 > 65535) {
      std::fprintf(stderr, "--base-port leaves no room for %u replicas\n",
                   spawn);
      return 2;
    }
    const std::string& served = flags.String("served");
    for (uint32_t i = 0; i < spawn; ++i) {
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
  } else {
    for (const int64_t p : flags.IntList("replicas")) {
      replicas.push_back(static_cast<uint16_t>(p));
    }
  }
  if (replicas.empty()) return PrintUsage(kFleetFlags);

  FleetServer::Options options;
  options.replicas = replicas;
  options.num_workers = flags.Int<size_t>("workers");
  options.accept_queue = flags.Int<size_t>("accept-queue");
  options.io_timeout_ms = flags.Int<uint32_t>("io-timeout-ms");
  options.hedge_after_ms = flags.Int<uint32_t>("hedge-after-ms");
  options.probe_interval_ms = flags.Int<uint32_t>("probe-interval-ms");
  options.retry_after_ms = flags.Int<uint32_t>("retry-after-ms");
  options.health.fail_threshold = flags.Int<uint32_t>("fail-threshold");
  options.health.reopen_after_ms = flags.Int<uint32_t>("reopen-after-ms");

  FleetServer fleet(options);
  LineServer::InstallShutdownSignalHandler();
  ::signal(SIGPIPE, SIG_IGN);

  std::string replica_list;
  for (const uint16_t p : replicas) {
    if (!replica_list.empty()) replica_list += ",";
    replica_list += std::to_string(p);
  }
  std::fprintf(stderr,
               "fleet on 127.0.0.1:%u over replicas [%s] with %zu workers"
               "%s (SIGTERM drains)\n",
               static_cast<unsigned>(port), replica_list.c_str(),
               options.num_workers,
               options.hedge_after_ms > 0 ? ", hedging on" : "");
  const Status st = fleet.RunLoop(port);
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
