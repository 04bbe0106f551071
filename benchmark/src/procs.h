// Server processes under test: spawning, readiness, memory, shutdown.

#ifndef OCULAR_BENCHMARK_PROCS_H_
#define OCULAR_BENCHMARK_PROCS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace ocular::bench {

/// A child process started by the benchmark. The destructor stops it, so
/// no exit path leaves a server running. The child also receives SIGTERM
/// if the benchmark itself dies (PR_SET_PDEATHSIG); a fleet forwards that
/// to the replicas it spawned.
class ChildProcess {
 public:
  /// fork/execs `argv` with stdout and stderr appended to `log_path`.
  static Result<ChildProcess> Spawn(const std::vector<std::string>& argv,
                                    const std::string& log_path);

  ChildProcess() = default;
  ChildProcess(ChildProcess&& other) noexcept;
  ChildProcess& operator=(ChildProcess&& other) noexcept;
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ~ChildProcess();

  pid_t pid() const { return pid_; }
  /// True until the process has exited and been reaped.
  bool Alive();
  /// SIGTERM, then SIGKILL after `grace_s`; waits until the process is
  /// reaped. Returns the raw wait status (-1 when nothing was running).
  int Stop(double grace_s = 10.0);

 private:
  pid_t pid_ = -1;
};

/// Live processes whose parent is `parent` (a fleet's spawned replicas).
std::vector<pid_t> ChildrenOf(pid_t parent);

/// Peak resident set (VmHWM) of `pid` in KiB, or 0 when unreadable.
uint64_t PeakRssKb(pid_t pid);

/// The first port of `count` consecutive loopback ports that are free now.
Result<uint16_t> FreePorts(uint32_t count);

/// One request line (newline-terminated) on a fresh connection to
/// 127.0.0.1:`port`; returns the reply line without its newline.
Result<std::string> RequestOnce(uint16_t port, const std::string& line);

/// Polls 127.0.0.1:`port` with `{"cmd":"ping"}` every millisecond until an
/// ok reply arrives. Fails when `child` exits first or `timeout_s` passes.
Status WaitUntilServing(uint16_t port, ChildProcess* child, double timeout_s);

/// The last `max_bytes` of a log file, for error reports.
std::string LogTail(const std::string& path, size_t max_bytes = 2000);

}  // namespace ocular::bench

#endif  // OCULAR_BENCHMARK_PROCS_H_
