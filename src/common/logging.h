// Leveled logging with a process-global threshold and pluggable sink.
//
// The simulator is quiet by default (benches print only their tables); tests
// and debugging can raise verbosity. The sink is a std::function so tests can
// capture output. Thread-safe: a mutex serializes sink calls, because
// parameter sweeps run simulations on parallel threads (parallel_for).
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace dare {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

const char* log_level_name(LogLevel level);

class Logger {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  /// Process-global logger instance.
  static Logger& instance();

  void set_level(LogLevel level);
  LogLevel level() const;

  /// Replace the sink (default writes to stderr). Passing nullptr restores
  /// the default sink.
  void set_sink(Sink sink);

  bool enabled(LogLevel level) const { return level >= this->level(); }

  void log(LogLevel level, const std::string& message);

 private:
  Logger();

  struct Impl;
  Impl* impl_;  // intentionally leaked singleton state (no destruction races)
};

/// Stream-style logging helper: LOG(kInfo) << "x=" << x;
class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace dare

#define DARE_LOG(level)                                   \
  if (!::dare::Logger::instance().enabled(level)) {       \
  } else                                                  \
    ::dare::LogMessage(level)

#define DARE_LOG_DEBUG DARE_LOG(::dare::LogLevel::kDebug)
#define DARE_LOG_INFO DARE_LOG(::dare::LogLevel::kInfo)
#define DARE_LOG_WARN DARE_LOG(::dare::LogLevel::kWarn)
#define DARE_LOG_ERROR DARE_LOG(::dare::LogLevel::kError)
