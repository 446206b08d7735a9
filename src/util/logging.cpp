#include "util/logging.hpp"

#include <atomic>
#include <iostream>
#include <mutex>

namespace bgl {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::mutex g_emit_mutex;

const char* level_name(LogLevel level) {
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

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

namespace detail {
void emit(LogLevel level, const std::string& message) {
  std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::cerr << "[bgl:" << level_name(level) << "] " << message << '\n';
}
}  // namespace detail

}  // namespace bgl
