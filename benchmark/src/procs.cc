#include "procs.h"

#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "measure.h"

namespace ocular::bench {

namespace {

struct sockaddr_in Loopback(uint16_t port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

/// Binds a throwaway socket to `port` (0 = any); returns the bound port or
/// 0 when the port is taken.
uint16_t TryBind(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  struct sockaddr_in addr = Loopback(port);
  uint16_t bound = 0;
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) ==
        0) {
      bound = ntohs(addr.sin_port);
    }
  }
  ::close(fd);
  return bound;
}

}  // namespace

Result<std::string> RequestOnce(uint16_t port, const std::string& line) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IOError("socket failed");
  struct sockaddr_in addr = Loopback(port);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return Status::IOError("connect refused");
  }
  struct timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string reply;
  if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) ==
      static_cast<ssize_t>(line.size())) {
    char buf[4096];
    while (reply.find('\n') == std::string::npos) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      reply.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  const size_t nl = reply.find('\n');
  if (nl == std::string::npos) return Status::IOError("no reply");
  reply.resize(nl);
  return reply;
}

Result<ChildProcess> ChildProcess::Spawn(const std::vector<std::string>& argv,
                                         const std::string& log_path) {
  if (argv.empty()) return Status::InvalidArgument("empty command");
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) return Status::IOError("cannot open " + log_path);
  const int null_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    if (null_fd >= 0) ::close(null_fd);
    return Status::IOError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    if (null_fd >= 0) ::dup2(null_fd, STDIN_FILENO);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log_fd);
  if (null_fd >= 0) ::close(null_fd);
  ChildProcess child;
  child.pid_ = pid;
  return child;
}

ChildProcess::ChildProcess(ChildProcess&& other) noexcept : pid_(other.pid_) {
  other.pid_ = -1;
}

ChildProcess& ChildProcess::operator=(ChildProcess&& other) noexcept {
  if (this != &other) {
    Stop();
    pid_ = other.pid_;
    other.pid_ = -1;
  }
  return *this;
}

ChildProcess::~ChildProcess() { Stop(); }

bool ChildProcess::Alive() {
  if (pid_ <= 0) return false;
  if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
    pid_ = -1;
    return false;
  }
  return true;
}

int ChildProcess::Stop(double grace_s) {
  if (pid_ <= 0) return -1;
  int status = 0;
  ::kill(pid_, SIGTERM);
  const int64_t deadline = NowNs() + static_cast<int64_t>(grace_s * 1e9);
  while (NowNs() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return status;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return status;
}

std::vector<pid_t> ChildrenOf(pid_t parent) {
  std::vector<pid_t> out;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return out;
  while (struct dirent* entry = ::readdir(proc)) {
    const pid_t pid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (pid <= 0) continue;
    std::ifstream stat("/proc/" + std::string(entry->d_name) + "/stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    // Fields after the parenthesized command name: state, then ppid.
    const size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 1));
    std::string state;
    pid_t ppid = 0;
    if (rest >> state >> ppid && ppid == parent && state != "Z") {
      out.push_back(pid);
    }
  }
  ::closedir(proc);
  return out;
}

uint64_t PeakRssKb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      uint64_t kb = 0;
      status >> kb;
      return kb;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

Result<uint16_t> FreePorts(uint32_t count) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const uint16_t first = TryBind(0);
    if (first == 0 || first + count - 1 > 65535) continue;
    bool all_free = true;
    for (uint32_t i = 1; i < count && all_free; ++i) {
      all_free = TryBind(static_cast<uint16_t>(first + i)) != 0;
    }
    if (all_free) return first;
  }
  return Status::IOError("no free loopback port range");
}

Status WaitUntilServing(uint16_t port, ChildProcess* child, double timeout_s) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (NowNs() < deadline) {
    auto reply = RequestOnce(port, "{\"cmd\":\"ping\"}\n");
    if (reply.ok() && reply->starts_with("{\"ok\":true")) return Status::OK();
    if (!child->Alive()) {
      return Status::Internal("server exited before answering ping");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status::Internal("server did not answer ping within timeout");
}

std::string LogTail(const std::string& path, size_t max_bytes) {
  std::ifstream in(path, std::ios::binary);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return all.size() > max_bytes ? all.substr(all.size() - max_bytes) : all;
}

}  // namespace ocular::bench
