#pragma once
// Minimal leveled logger. Rank-aware once the MPI runtime is up: every
// line emitted from a rank thread is automatically stamped with the
// rank id and the rank's *virtual* clock time (read from the
// thread-local ObsContext the runtime installs) — callers pass only the
// module tag, never hand-built "rank N" strings. When a flight-recorder
// session is live, WARN and ERROR lines are additionally mirrored into
// the tracer as instant events ("log.warn" / "log.error" with the
// message as detail), so warnings show up on the Perfetto timeline at
// the virtual moment they fired. Safe to call from any thread.
// Benchmarks run at WARN so the regenerated tables stay clean; tests may
// raise verbosity via env var MVIO_LOG=debug|info|warn|error.

#include <sstream>
#include <string>

namespace mvio::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global minimum level; initialised from MVIO_LOG on first use.
LogLevel logLevel();

/// Emit one line (thread-safe, single write). `tag` is the module name;
/// the rank id and virtual time are prefixed automatically on rank
/// threads: "[WARN][rank 3 @ 1.234567s] recovery: ...".
void logLine(LogLevel level, const std::string& tag, const std::string& message);

}  // namespace mvio::util

#define MVIO_LOG(level, tag, expr)                                        \
  do {                                                                    \
    if (static_cast<int>(level) >= static_cast<int>(::mvio::util::logLevel())) { \
      std::ostringstream mvio_log_os;                                     \
      mvio_log_os << expr;                                                \
      ::mvio::util::logLine(level, tag, mvio_log_os.str());               \
    }                                                                     \
  } while (0)

#define MVIO_DEBUG(tag, expr) MVIO_LOG(::mvio::util::LogLevel::kDebug, tag, expr)
#define MVIO_INFO(tag, expr) MVIO_LOG(::mvio::util::LogLevel::kInfo, tag, expr)
#define MVIO_WARN(tag, expr) MVIO_LOG(::mvio::util::LogLevel::kWarn, tag, expr)
#define MVIO_ERROR(tag, expr) MVIO_LOG(::mvio::util::LogLevel::kError, tag, expr)
