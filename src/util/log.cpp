#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/trace.hpp"

namespace mvio::util {

namespace {

std::atomic<int> g_level{-1};
std::mutex g_emitMutex;

LogLevel levelFromEnv() {
  const char* env = std::getenv("MVIO_LOG");
  if (env == nullptr) return LogLevel::kWarn;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  if (std::strcmp(env, "off") == 0) return LogLevel::kOff;
  return LogLevel::kWarn;
}

const char* levelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

LogLevel logLevel() {
  int lvl = g_level.load(std::memory_order_relaxed);
  if (lvl < 0) {
    lvl = static_cast<int>(levelFromEnv());
    g_level.store(lvl, std::memory_order_relaxed);
  }
  return static_cast<LogLevel>(lvl);
}

void logLine(LogLevel level, const std::string& tag, const std::string& message) {
  // Rank id + virtual time come from the thread-local context the MPI
  // runtime installs; off-rank threads (main, tests) get the bare form.
  const obs::ObsContext& ctx = obs::obsContext();
  {
    std::lock_guard<std::mutex> lock(g_emitMutex);
    if (ctx.worldRank >= 0 && ctx.clock != nullptr) {
      std::fprintf(stderr, "[%s][rank %d @ %.6fs] %s: %s\n", levelName(level), ctx.worldRank,
                   ctx.clock->now(), tag.c_str(), message.c_str());
    } else {
      std::fprintf(stderr, "[%s] %s: %s\n", levelName(level), tag.c_str(), message.c_str());
    }
  }
  // Mirror WARN+ onto the trace timeline when the recorder is on.
  if (level == LogLevel::kWarn) {
    obs::traceInstant("log.warn", tag + ": " + message);
  } else if (level == LogLevel::kError) {
    obs::traceInstant("log.error", tag + ": " + message);
  }
}

}  // namespace mvio::util
