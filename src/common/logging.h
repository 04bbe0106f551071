#ifndef OCULAR_COMMON_LOGGING_H_
#define OCULAR_COMMON_LOGGING_H_

#include <cstdlib>
#include <sstream>
#include <string>

namespace ocular {

/// Severity levels for the lightweight logger. Messages below the global
/// threshold are discarded; kFatal aborts the process after logging.
enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

/// Sets / reads the global log threshold (default: kInfo).
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

namespace internal {

/// Stream-style log line; flushes to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows the streamed expression when the level is filtered out.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal

#define OCULAR_LOG(level)                                                \
  if (::ocular::LogLevel::level < ::ocular::GetLogLevel()) {             \
  } else                                                                 \
    ::ocular::internal::LogMessage(::ocular::LogLevel::level, __FILE__,  \
                                   __LINE__)                             \
        .stream()

/// CHECK-style invariant macro: active in all build types, aborts with a
/// message on violation. For programmer errors, not user input (user input
/// errors go through Status).
#define OCULAR_CHECK(cond)                                                   \
  if (cond) {                                                                \
  } else                                                                     \
    ::ocular::internal::LogMessage(::ocular::LogLevel::kFatal, __FILE__,     \
                                   __LINE__)                                 \
            .stream()                                                        \
        << "Check failed: " #cond " "

#define OCULAR_CHECK_EQ(a, b) OCULAR_CHECK((a) == (b))
#define OCULAR_CHECK_NE(a, b) OCULAR_CHECK((a) != (b))
#define OCULAR_CHECK_LT(a, b) OCULAR_CHECK((a) < (b))
#define OCULAR_CHECK_LE(a, b) OCULAR_CHECK((a) <= (b))
#define OCULAR_CHECK_GT(a, b) OCULAR_CHECK((a) > (b))
#define OCULAR_CHECK_GE(a, b) OCULAR_CHECK((a) >= (b))

}  // namespace ocular

#endif  // OCULAR_COMMON_LOGGING_H_
