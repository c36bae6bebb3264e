// The log level is read by every Log call on every serving thread while an
// operator may change it; under ThreadSanitizer this test fails unless the
// level is an atomic.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/logging.h"

namespace groupsa {
namespace {

TEST(LoggingRaceTest, LevelFlipsWhileFourThreadsLog) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  std::atomic<bool> stop{false};
  std::atomic<int> logged{0};
  std::vector<std::thread> loggers;
  for (int t = 0; t < 4; ++t) {
    loggers.emplace_back([&] {
      // Debug lines sit below both levels the flipper sets, so the test
      // reads the level on every call without printing anything.
      while (!stop.load(std::memory_order_relaxed)) {
        LogDebug("suppressed");
        logged.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 2000; ++i) {
    SetLogLevel(i % 2 == 0 ? LogLevel::kWarning : LogLevel::kError);
    const LogLevel seen = GetLogLevel();
    EXPECT_TRUE(seen == LogLevel::kWarning || seen == LogLevel::kError);
  }
  while (logged.load(std::memory_order_relaxed) < 4000)
    std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : loggers) t.join();
  SetLogLevel(original);
  EXPECT_GE(logged.load(), 4000);
}

}  // namespace
}  // namespace groupsa
