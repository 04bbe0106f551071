#ifndef OCULAR_SERVING_NET_UTIL_H_
#define OCULAR_SERVING_NET_UTIL_H_

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <string>

namespace ocular {
namespace net {

/// \file
/// \brief The two socket loops everything in the serving stack shares:
/// write-fully and read-one-line. One definition so EINTR handling,
/// MSG_NOSIGNAL, and framing can never drift apart between the
/// connection core (serving/line_server.cc), the load generator
/// (serving/loadgen.cc), and the daemon bench.

/// \brief send(2)s until `size` bytes of `data` are out; false on a
/// non-EINTR error. MSG_NOSIGNAL: a peer that disconnected must surface
/// as EPIPE on this call, never as a process-killing SIGPIPE.
inline bool SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t w = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(w);
  }
  return true;
}

/// \brief Puts `fd` in nonblocking mode (O_NONBLOCK via fcntl); false on
/// failure. The epoll readiness loop requires it on every socket it
/// multiplexes — a blocking read on a readable-then-drained socket would
/// stall the whole IO thread.
inline bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  if ((flags & O_NONBLOCK) != 0) return true;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// How one ReadLineBounded call ended.
enum class ReadEvent {
  kLine,      ///< a complete line was produced
  kClosed,    ///< clean EOF from the peer
  kError,     ///< read(2) failed (errno preserved)
  kOverflow,  ///< `max_line_bytes` accumulated without a newline
};

/// Default framing bound: no well-formed request or reply line in this
/// protocol comes near 1 MiB, but a hostile or broken peer streaming
/// newline-free bytes otherwise grows the buffer without limit until the
/// process OOMs.
inline constexpr size_t kDefaultMaxLineBytes = 1 << 20;

/// \brief Reads one newline-terminated line into `*line` (newline
/// stripped), buffering surplus bytes in `*buffer` across calls, never
/// letting the buffer grow past `max_line_bytes` (0 = unbounded). On
/// kOverflow the oversized prefix stays in `*buffer` so the caller can
/// reply before closing.
inline ReadEvent ReadLineBounded(int fd, std::string* buffer,
                                 std::string* line,
                                 size_t max_line_bytes = kDefaultMaxLineBytes) {
  for (;;) {
    const size_t newline = buffer->find('\n');
    if (newline != std::string::npos) {
      line->assign(*buffer, 0, newline);
      buffer->erase(0, newline + 1);
      return ReadEvent::kLine;
    }
    if (max_line_bytes != 0 && buffer->size() >= max_line_bytes) {
      return ReadEvent::kOverflow;
    }
    char chunk[16384];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ReadEvent::kError;
    }
    if (n == 0) return ReadEvent::kClosed;
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

/// \brief Bool shorthand of ReadLineBounded: true only for a complete
/// line. Overflow, EOF and errors all read as "no more lines" — callers
/// that must distinguish use ReadLineBounded directly.
inline bool ReadLine(int fd, std::string* buffer, std::string* line,
                     size_t max_line_bytes = kDefaultMaxLineBytes) {
  return ReadLineBounded(fd, buffer, line, max_line_bytes) == ReadEvent::kLine;
}

}  // namespace net
}  // namespace ocular

#endif  // OCULAR_SERVING_NET_UTIL_H_
