// Minimal leveled logger.
//
// The simulator is often run thousands of times inside a sweep, so logging
// defaults to kWarn. No environment variable or flag changes the threshold;
// code (and the tests) change it with set_log_level().
#pragma once

#include <sstream>
#include <string>

namespace bgl {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log threshold; messages below it are discarded.
LogLevel log_level();
void set_log_level(LogLevel level);

namespace detail {
void emit(LogLevel level, const std::string& message);
}

}  // namespace bgl

#define BGL_LOG(level, stream_expr)                         \
  do {                                                      \
    if (static_cast<int>(level) >=                          \
        static_cast<int>(::bgl::log_level())) {             \
      std::ostringstream bgl_log_os_;                       \
      bgl_log_os_ << stream_expr;                           \
      ::bgl::detail::emit(level, bgl_log_os_.str());        \
    }                                                       \
  } while (false)

#define BGL_DEBUG(stream_expr) BGL_LOG(::bgl::LogLevel::kDebug, stream_expr)
#define BGL_INFO(stream_expr) BGL_LOG(::bgl::LogLevel::kInfo, stream_expr)
#define BGL_WARN(stream_expr) BGL_LOG(::bgl::LogLevel::kWarn, stream_expr)
#define BGL_ERROR(stream_expr) BGL_LOG(::bgl::LogLevel::kError, stream_expr)
