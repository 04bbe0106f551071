#include "common/logging.h"

#include <atomic>
#include <cstdio>

namespace ocular {

namespace {
std::atomic<int> g_log_level{static_cast<int>(LogLevel::kInfo)};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_log_level.load(std::memory_order_relaxed));
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // Strip directories for compact output.
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  // Straight to stdio's stderr: std::cerr would link the iostream
  // initializer into every binary, serving ones included.
  stream_ << "\n";
  const std::string line = stream_.str();
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace internal
}  // namespace ocular
