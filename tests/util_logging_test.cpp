#include "util/logging.hpp"

#include <gtest/gtest.h>

namespace bgl {
namespace {

class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_ = log_level(); }
  void TearDown() override { set_log_level(previous_); }
  LogLevel previous_ = LogLevel::kWarn;
};

TEST_F(LoggingTest, SetAndGetLevel) {
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(LogLevel::kOff);
  EXPECT_EQ(log_level(), LogLevel::kOff);
}

TEST_F(LoggingTest, MacroRespectsThreshold) {
  // The macro must not evaluate its stream expression below the threshold.
  set_log_level(LogLevel::kError);
  int evaluations = 0;
  auto observe = [&]() {
    ++evaluations;
    return "x";
  };
  BGL_DEBUG(observe());
  BGL_INFO(observe());
  BGL_WARN(observe());
  EXPECT_EQ(evaluations, 0);

  set_log_level(LogLevel::kOff);
  BGL_ERROR(observe());
  EXPECT_EQ(evaluations, 0);
}

TEST_F(LoggingTest, MacroEvaluatesAtOrAboveThreshold) {
  set_log_level(LogLevel::kDebug);
  int evaluations = 0;
  auto observe = [&]() {
    ++evaluations;
    return "payload";
  };
  ::testing::internal::CaptureStderr();
  BGL_DEBUG(observe());
  BGL_ERROR(observe());
  const std::string text = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(evaluations, 2);
  EXPECT_NE(text.find("DEBUG"), std::string::npos);
  EXPECT_NE(text.find("ERROR"), std::string::npos);
  EXPECT_NE(text.find("payload"), std::string::npos);
}

}  // namespace
}  // namespace bgl
