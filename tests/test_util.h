// Shared test fixtures: a seeded RNG factory, tiny deterministic
// synthetic interaction matrices, an OCLR v3 writer and v2 downgrader
// for the artifacts of earlier releases, a page
// residency probe, and the loopback harness of the serving tests (a raw
// TCP client, a free port, the real daemon binary as a child process),
// so individual test files stop re-implementing the same builders.

#ifndef OCULAR_TESTS_TEST_UTIL_H_
#define OCULAR_TESTS_TEST_UTIL_H_

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/model_store.h"
#include "serving/net_util.h"
#include "sparse/coo.h"
#include "sparse/csr.h"

namespace ocular {
namespace test {

/// Default seed for tests that just need "some" deterministic randomness.
inline constexpr uint64_t kDefaultSeed = 42;

/// Seeded RNG factory — one call site to change if Rng's constructor or
/// seeding scheme ever evolves.
inline Rng MakeRng(uint64_t seed = kDefaultSeed) { return Rng(seed); }

/// Random sparse interaction matrix with `nnz` draws (duplicates collapse,
/// so the realized nnz may be slightly lower). Deterministic in `seed`.
inline CsrMatrix RandomCsr(uint32_t rows, uint32_t cols, size_t nnz,
                           uint64_t seed = kDefaultSeed) {
  Rng rng = MakeRng(seed);
  CooBuilder coo;
  for (size_t e = 0; e < nnz; ++e) {
    coo.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{rows})),
            static_cast<uint32_t>(rng.UniformInt(uint64_t{cols})));
  }
  return CsrMatrix::FromCoo(coo.Finalize(rows, cols).value());
}

/// Random matrix parameterized by density instead of an absolute count.
inline CsrMatrix RandomCsrDense(uint32_t rows, uint32_t cols, double density,
                                uint64_t seed = kDefaultSeed) {
  return RandomCsr(rows, cols, static_cast<size_t>(rows * cols * density),
                   seed);
}

/// Two disjoint dense blocks (users 0-9 x items 0-7, users 10-19 x items
/// 8-15) with a few holes: the easiest co-clustering instance — any
/// co-clustering method must nail it. Fully deterministic.
inline CsrMatrix TinyBlocksCsr() {
  CooBuilder coo;
  for (uint32_t u = 0; u < 10; ++u) {
    for (uint32_t i = 0; i < 8; ++i) {
      if ((u + i) % 9 != 0) coo.Add(u, i);  // block 1 with holes
    }
  }
  for (uint32_t u = 10; u < 20; ++u) {
    for (uint32_t i = 8; i < 16; ++i) {
      if ((u + i) % 9 != 0) coo.Add(u, i);  // block 2 with holes
    }
  }
  return CsrMatrix::FromCoo(coo.Finalize(20, 16).value());
}

/// Writes `users` (n_u x k) and `items` (n_i x k) as the OCLR v3 file the
/// releases before v4 wrote, byte for byte: the 160-byte header and
/// table, then the user factors, the row-major item factors and Vᵀ, each
/// at the next 64-byte boundary after the one before, zero gaps, XXH64
/// checksums. The reference for old artifacts (StampOclrV2 turns its
/// output into v2). False when the file cannot be written.
inline bool WriteOclrV3(const std::string& path, const BinaryModelMeta& meta,
                        ConstMatrixView users, ConstMatrixView items) {
  std::vector<double> items_t(items.size());
  for (uint32_t i = 0; i < items.rows(); ++i) {
    for (uint32_t c = 0; c < items.cols(); ++c) {
      items_t[size_t{c} * items.rows() + i] = items.At(i, c);
    }
  }
  const std::pair<const double*, size_t> sections[3] = {
      {users.data(), users.size() * sizeof(double)},
      {items.data(), items.size() * sizeof(double)},
      {items_t.data(), items_t.size() * sizeof(double)}};
  std::string bytes(192, '\0');
  const auto put = [&bytes](size_t at, const void* v, size_t n) {
    std::memcpy(&bytes[at], v, n);
  };
  const uint32_t words[] = {3,      0x0C0FFEE1,  static_cast<uint32_t>(meta.kind),
                            meta.k, users.rows(), items.rows()};
  put(0, "OCLR", 4);
  put(4, words, sizeof(words));
  const uint32_t flags =
      (meta.use_biases ? 1u : 0u) | (meta.relative_variant ? 2u : 0u);
  put(28, &flags, 4);
  put(32, &meta.lambda, 8);
  put(40, meta.algorithm.data(), std::min<size_t>(meta.algorithm.size(), 15));
  const uint32_t count = 3;
  put(56, &count, 4);
  for (uint32_t kind = 0; kind < 3; ++kind) {
    const uint64_t offset = bytes.size();
    const uint64_t length = sections[kind].second;
    // An empty section (an items or shard file) hashes no bytes.
    const char* data = length == 0
                           ? ""
                           : reinterpret_cast<const char*>(sections[kind].first);
    const uint64_t checksum = Xxh64(data, length);
    bytes.append(data, length);
    bytes.resize((bytes.size() + 63) / 64 * 64, '\0');
    put(64 + 32 * kind, &kind, 4);
    put(64 + 32 * kind + 8, &offset, 8);
    put(64 + 32 * kind + 16, &length, 8);
    put(64 + 32 * kind + 24, &checksum, 8);
  }
  // The last section ends the file; only gaps between sections are padded.
  bytes.resize(bytes.size() - ((64 - sections[2].second % 64) % 64));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

/// Rewrites the OCLR file at `path` in place as format v2 — version 2 and
/// FNV-1a 64 section checksums, the previous release's output for the
/// same factors — so tests can prove old artifacts still open. Reads the
/// section table at the offsets docs/MODEL_FORMAT.md fixes. False when
/// the file cannot be read or written.
inline bool StampOclrV2(const std::string& path) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  constexpr size_t kTableOffset = 64, kEntryBytes = 32, kSections = 3;
  if (bytes.size() < kTableOffset + kSections * kEntryBytes) return false;
  const uint32_t version = 2;
  std::memcpy(&bytes[4], &version, sizeof(version));
  for (size_t i = 0; i < kSections; ++i) {
    char* entry = &bytes[kTableOffset + i * kEntryBytes];
    uint64_t offset = 0, length = 0;
    std::memcpy(&offset, entry + 8, sizeof(offset));
    std::memcpy(&length, entry + 16, sizeof(length));
    if (offset > bytes.size() || length > bytes.size() - offset) return false;
    const uint64_t checksum = Fnv1a64(bytes.data() + offset, length);
    std::memcpy(entry + 24, &checksum, sizeof(checksum));
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

/// Pages of this process's address range [begin, begin + bytes) that are
/// present in its page table — mapped in, not merely cached — read from
/// bit 63 of each page's /proc/self/pagemap entry (readable without
/// privilege; only the frame numbers are hidden). Counts every page the
/// range touches, partial ones at either end included. -1 when pagemap
/// cannot be read.
inline long PresentPages(const void* begin, size_t bytes) {
  const uintptr_t page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
  const uintptr_t first = reinterpret_cast<uintptr_t>(begin) / page;
  const uintptr_t last =
      (reinterpret_cast<uintptr_t>(begin) + bytes + page - 1) / page;
  std::vector<uint64_t> entries(last - first);
  const int fd = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return -1;
  const size_t want = entries.size() * sizeof(uint64_t);
  const ssize_t got = ::pread(fd, entries.data(), want,
                              static_cast<off_t>(first * sizeof(uint64_t)));
  ::close(fd);
  if (got != static_cast<ssize_t>(want)) return -1;
  long present = 0;
  for (const uint64_t entry : entries) present += (entry >> 63) & 1;
  return present;
}


// ------------------------------------------------- loopback harness

/// Minimal raw TCP client: exact control over partial sends, reads and
/// closes, which the load generator (deliberately) hides — it always
/// drains its replies. The I/O delegates to the shared net:: loops.
/// Move-only; the destructor closes the socket.
struct RawClient {
  int fd = -1;
  std::string buffer;

  RawClient() = default;
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;
  RawClient(RawClient&& other) noexcept
      : fd(other.fd), buffer(std::move(other.buffer)) {
    other.fd = -1;
  }
  RawClient& operator=(RawClient&& other) noexcept {
    if (this != &other) {
      Close();
      fd = other.fd;
      buffer = std::move(other.buffer);
      other.fd = -1;
    }
    return *this;
  }
  ~RawClient() { Close(); }

  /// Connects to 127.0.0.1:`port`. `rcvbuf` > 0 pins SO_RCVBUF before
  /// connect (so it caps the negotiated receive window): the
  /// slow-consumer tests need the kernel's autotuned buffers NOT to
  /// absorb a whole reply flood.
  bool Connect(uint16_t port, int rcvbuf = 0) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    if (rcvbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }
  /// Sends `line` and its newline.
  bool Send(const std::string& line) {
    const std::string framed = line + "\n";
    return net::SendAll(fd, framed.data(), framed.size());
  }
  /// Sends `bytes` as they are (partial lines, no newline).
  bool SendRaw(const std::string& bytes) {
    return net::SendAll(fd, bytes.data(), bytes.size());
  }
  bool ReadLine(std::string* line) { return net::ReadLine(fd, &buffer, line); }
  void Close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

/// A free loopback port: bind 0, read the assignment, close. The tiny
/// close-to-exec race is acceptable for tests.
inline uint16_t FreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return 0;
  }
  socklen_t len = sizeof(addr);
  uint16_t port = 0;
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) ==
      0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

#ifdef OCULAR_SERVED_PATH
/// The real daemon binary (OCULAR_SERVED_PATH, which CMake gives the
/// tests that fork it) as a child process: stdin from /dev/null, stderr
/// captured to a file, faults injected through OCULAR_FAULTS, optionally
/// under a lowered RLIMIT_NOFILE (the fd-exhaustion drill). Move-only:
/// the destructor SIGKILLs `pid`, so a copied temporary (e.g. through
/// make_unique) would kill the child it just started, and a moved-from
/// instance owns nothing.
struct ServedProcess {
  pid_t pid = -1;
  std::string stderr_path;

  ServedProcess() = default;
  ServedProcess(const ServedProcess&) = delete;
  ServedProcess& operator=(const ServedProcess&) = delete;
  ServedProcess(ServedProcess&& other) noexcept
      : pid(other.pid), stderr_path(std::move(other.stderr_path)) {
    other.pid = -1;
  }
  ServedProcess& operator=(ServedProcess&& other) noexcept {
    if (this != &other) {
      KillHard();
      pid = other.pid;
      stderr_path = std::move(other.stderr_path);
      other.pid = -1;
    }
    return *this;
  }
  ~ServedProcess() { KillHard(); }

  /// Forks and execs the daemon with `args`. `faults` is the child's
  /// OCULAR_FAULTS (empty: none); `nofile_limit` > 0 lowers its
  /// RLIMIT_NOFILE before the exec.
  static ServedProcess Start(const std::vector<std::string>& args,
                             const std::string& faults,
                             const std::string& stderr_path,
                             rlim_t nofile_limit = 0) {
    ServedProcess p;
    p.stderr_path = stderr_path;
    p.pid = ::fork();
    if (p.pid == 0) {
      if (faults.empty()) {
        ::unsetenv("OCULAR_FAULTS");
      } else {
        ::setenv("OCULAR_FAULTS", faults.c_str(), 1);
      }
      if (nofile_limit > 0) {
        struct rlimit lim;
        lim.rlim_cur = nofile_limit;
        lim.rlim_max = nofile_limit;
        if (::setrlimit(RLIMIT_NOFILE, &lim) != 0) ::_exit(126);
      }
      const int err =
          ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (err >= 0) {
        ::dup2(err, 2);
        ::close(err);
      }
      const int null = ::open("/dev/null", O_RDONLY);
      if (null >= 0) {
        ::dup2(null, 0);
        ::close(null);
      }
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(OCULAR_SERVED_PATH));
      for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(OCULAR_SERVED_PATH, argv.data());
      ::_exit(127);
    }
    return p;
  }

  /// Waits (bounded) for the child to die; returns the raw wait status,
  /// or -1 on timeout or when there is no child to wait for.
  int Wait(int timeout_ms = 30000) {
    for (int waited = 0; pid > 0 && waited < timeout_ms; waited += 10) {
      int status = 0;
      const pid_t done = ::waitpid(pid, &status, WNOHANG);
      if (done == pid || done < 0) {  // reaped, or already gone
        pid = -1;
        return done < 0 ? -1 : status;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
  }

  void KillHard() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      Wait();
    }
  }
};

/// Polls until the daemon accepts on `port` (it is serving) or the child
/// died. Returns whether a connection succeeded.
inline bool WaitForServing(uint16_t port, ServedProcess* served,
                           int timeout_ms = 20000) {
  for (int waited = 0; waited < timeout_ms; waited += 20) {
    RawClient probe;
    if (probe.Connect(port)) return true;
    int status = 0;
    if (served->pid > 0 &&
        ::waitpid(served->pid, &status, WNOHANG) == served->pid) {
      served->pid = -1;
      return false;  // died before listening
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}
#endif  // OCULAR_SERVED_PATH

}  // namespace test
}  // namespace ocular

#endif  // OCULAR_TESTS_TEST_UTIL_H_
