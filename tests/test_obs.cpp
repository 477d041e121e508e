// Observability subsystem: metrics correctness under concurrent threadpool
// writers, span nesting + Chrome-trace well-formedness, structured-log level
// filtering, and strict env parsing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "nn/threadpool.h"
#include "obs/env.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dcdiff::obs {
namespace {

// ----- metrics -----

TEST(Metrics, CounterConcurrentThreadpoolWriters) {
  Counter& c = counter("test.obs.concurrent_counter");
  c.reset();
  const int64_t n = 10000;
  nn::parallel_for(n, [&](int64_t) { c.inc(); });
  EXPECT_EQ(c.value(), static_cast<uint64_t>(n));
  c.inc(5);
  EXPECT_EQ(c.value(), static_cast<uint64_t>(n) + 5);
}

TEST(Metrics, GaugeSetAndMax) {
  Gauge& g = gauge("test.obs.gauge");
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.set_max(2.0);  // lower than current: no change
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.set_max(7.25);
  EXPECT_DOUBLE_EQ(g.value(), 7.25);
}

TEST(Metrics, HistogramConcurrentObservations) {
  Histogram& h = histogram("test.obs.concurrent_hist");
  h.reset();
  const int64_t n = 20000;
  // Exact values across threads: count and sum must both be lossless.
  nn::parallel_for(n, [&](int64_t i) {
    h.observe(i % 2 == 0 ? 1e-3 : 2e-3);
  });
  EXPECT_EQ(h.count(), static_cast<uint64_t>(n));
  EXPECT_NEAR(h.sum(), 1e-3 * (n / 2) + 2e-3 * (n / 2), 1e-9);
  EXPECT_DOUBLE_EQ(h.min(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 2e-3);
}

TEST(Metrics, HistogramPercentiles) {
  Histogram h({0.001, 0.01, 0.1, 1.0});
  for (int i = 0; i < 90; ++i) h.observe(0.005);  // (0.001, 0.01] bucket
  for (int i = 0; i < 10; ++i) h.observe(0.5);    // (0.1, 1.0] bucket
  const double p50 = h.percentile(0.50);
  EXPECT_GT(p50, 0.001);
  EXPECT_LE(p50, 0.01);
  const double p99 = h.percentile(0.99);
  EXPECT_GT(p99, 0.1);
  EXPECT_LE(p99, 1.0);
  // Monotone in p.
  EXPECT_LE(h.percentile(0.1), h.percentile(0.9));
  EXPECT_LE(h.percentile(0.9), h.percentile(0.999));
}

// A percentile lies within the samples: interpolating toward a bucket's
// edge must not report 100 samples of 12 ms as p50 15 ms and p99 19.9 ms.
TEST(Metrics, PercentilesStayWithinObservedRange) {
  Histogram h(Histogram::slo_latency_bounds());
  for (int i = 0; i < 100; ++i) h.observe(0.012);
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 0.012);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.012);
  // Two clusters: each percentile stays within [min, max].
  for (int i = 0; i < 100; ++i) h.observe(0.3);
  EXPECT_GE(h.percentile(0.01), 0.012);
  EXPECT_LE(h.percentile(0.999), 0.3);
}

TEST(Metrics, EmptyHistogramIsZero) {
  Histogram h({1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Metrics, ScopedLatencyRecords) {
  Histogram& h = histogram("test.obs.scoped_latency");
  h.reset();
  { ScopedLatency timer(h); }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.max(), 0.0);
}

TEST(Metrics, RegistryJsonIsWellFormed) {
  counter("test.obs.json_counter").inc(3);
  gauge("test.obs.json_gauge").set(1.5);
  histogram("test.obs.json_hist").observe(0.01);
  const std::string json = Registry::instance().to_json();
  EXPECT_TRUE(json_validate(json)) << json;
  EXPECT_NE(json.find("\"test.obs.json_counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

// ----- json -----

TEST(Json, ValidatorAcceptsValidDocuments) {
  EXPECT_TRUE(json_validate("{}"));
  EXPECT_TRUE(json_validate("[]"));
  EXPECT_TRUE(json_validate("  {\"a\": [1, -2.5e3, true, null, \"s\"]} "));
  EXPECT_TRUE(json_validate("{\"nested\": {\"x\": [[[0]]]}}"));
  EXPECT_TRUE(json_validate("\"just a string\\n\""));
  EXPECT_TRUE(json_validate("-0.5"));
}

TEST(Json, ValidatorRejectsMalformedDocuments) {
  EXPECT_FALSE(json_validate(""));
  EXPECT_FALSE(json_validate("{"));
  EXPECT_FALSE(json_validate("{\"a\":}"));
  EXPECT_FALSE(json_validate("[1,]"));
  EXPECT_FALSE(json_validate("{\"a\":1} extra"));
  EXPECT_FALSE(json_validate("{'a':1}"));
  EXPECT_FALSE(json_validate("{\"a\":01}"));
  EXPECT_FALSE(json_validate("\"unterminated"));
  EXPECT_FALSE(json_validate("nan"));
}

TEST(Json, EscapeRoundTrip) {
  const std::string escaped = json_escape("a\"b\\c\nd\te\x01");
  const std::string doc = "\"" + escaped + "\"";
  EXPECT_TRUE(json_validate(doc)) << doc;
}

// ----- trace -----

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("dcdiff_trace_test_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
              ".json"))
                .string();
    clear_trace();
    set_trace_file(path_);
  }
  void TearDown() override {
    set_trace_file("");
    clear_trace();
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::string path_;
};

TEST_F(TraceTest, SpanNestingDepthsAndContainment) {
  EXPECT_EQ(current_span_depth(), 0);
  {
    DCDIFF_TRACE_SPAN("outer");
    EXPECT_EQ(current_span_depth(), 1);
    {
      DCDIFF_TRACE_SPAN("inner");
      EXPECT_EQ(current_span_depth(), 2);
    }
    EXPECT_EQ(current_span_depth(), 1);
  }
  EXPECT_EQ(current_span_depth(), 0);
  ASSERT_EQ(trace_event_count(), 2u);

  ASSERT_TRUE(flush_trace());
  std::ifstream f(path_);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string doc = ss.str();
  ASSERT_TRUE(json_validate(doc)) << doc;
  // Inner completes first; both spans and their depths are recorded.
  EXPECT_NE(doc.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(doc.find("\"depth\":2"), std::string::npos);
  EXPECT_NE(doc.find("\"depth\":1"), std::string::npos);
  EXPECT_LT(doc.find("\"name\":\"inner\""), doc.find("\"name\":\"outer\""));
}

TEST_F(TraceTest, DisabledSpansCostNothingAndRecordNothing) {
  set_trace_file("");
  clear_trace();
  {
    DCDIFF_TRACE_SPAN("ignored");
    EXPECT_EQ(current_span_depth(), 0);  // disabled spans don't even nest
  }
  EXPECT_EQ(trace_event_count(), 0u);
  EXPECT_FALSE(flush_trace());
}

TEST_F(TraceTest, ConcurrentSpansFromThreadpoolAreWellFormed) {
  nn::parallel_for(64, [&](int64_t) { DCDIFF_TRACE_SPAN("pool_task"); });
  EXPECT_EQ(trace_event_count(), 64u);
  ASSERT_TRUE(flush_trace());
  std::ifstream f(path_);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_TRUE(json_validate(ss.str()));
}

// ----- log -----

class LogCapture {
 public:
  LogCapture() {
    set_log_sink([this](const std::string& line) {
      lines_.push_back(line);
    });
  }
  ~LogCapture() { set_log_sink(nullptr); }
  const std::vector<std::string>& lines() const { return lines_; }
  bool contains(const std::string& needle) const {
    for (const auto& l : lines_) {
      if (l.find(needle) != std::string::npos) return true;
    }
    return false;
  }

 private:
  std::vector<std::string> lines_;
};

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = log_level(); }
  void TearDown() override { set_log_level(saved_); }
  LogLevel saved_;
};

TEST_F(LogTest, LevelFiltering) {
  LogCapture cap;
  set_log_level(LogLevel::kInfo);
  DCDIFF_LOG_DEBUG("test", "hidden_debug");
  DCDIFF_LOG_INFO("test", "visible_info");
  DCDIFF_LOG_ERROR("test", "visible_error");
  EXPECT_FALSE(cap.contains("event=hidden_debug"));
  EXPECT_TRUE(cap.contains("event=visible_info"));
  EXPECT_TRUE(cap.contains("event=visible_error"));

  set_log_level(LogLevel::kOff);
  DCDIFF_LOG_ERROR("test", "suppressed_error");
  EXPECT_FALSE(cap.contains("event=suppressed_error"));
}

TEST_F(LogTest, StructuredFieldsFormatting) {
  LogCapture cap;
  set_log_level(LogLevel::kDebug);
  DCDIFF_LOG_DEBUG("test.comp", "fields",
                   {{"step", 42}, {"loss", 0.5}, {"tag", "a b"}});
  ASSERT_EQ(cap.lines().size(), 1u);
  const std::string& line = cap.lines()[0];
  EXPECT_NE(line.find("level=debug"), std::string::npos);
  EXPECT_NE(line.find("comp=test.comp"), std::string::npos);
  EXPECT_NE(line.find("event=fields"), std::string::npos);
  EXPECT_NE(line.find("step=42"), std::string::npos);
  EXPECT_NE(line.find("loss=0.5"), std::string::npos);
  EXPECT_NE(line.find("tag=\"a b\""), std::string::npos);
  EXPECT_EQ(line.rfind("ts=", 0), 0u);  // line starts with the timestamp
}

TEST_F(LogTest, ParseLevelNames) {
  EXPECT_EQ(parse_log_level("debug", LogLevel::kWarn), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("ERROR", LogLevel::kWarn), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off", LogLevel::kWarn), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("bogus", LogLevel::kWarn), LogLevel::kWarn);
}

// ----- env -----

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv(kVar); }
  static constexpr const char* kVar = "DCDIFF_TEST_ENV_INT";
};

TEST_F(EnvTest, IntParsesValidValues) {
  setenv(kVar, "123", 1);
  EXPECT_EQ(env_int(kVar, 7), 123);
  setenv(kVar, "0", 1);
  EXPECT_EQ(env_int(kVar, 7), 0);
}

TEST_F(EnvTest, IntRejectsMalformedAndNegative) {
  unsetenv(kVar);
  EXPECT_EQ(env_int(kVar, 7), 7);
  setenv(kVar, "", 1);
  EXPECT_EQ(env_int(kVar, 7), 7);
  setenv(kVar, "abc", 1);
  EXPECT_EQ(env_int(kVar, 7), 7);  // atoi would have returned 0
  setenv(kVar, "12abc", 1);
  EXPECT_EQ(env_int(kVar, 7), 7);
  setenv(kVar, "-3", 1);
  EXPECT_EQ(env_int(kVar, 7), 7);
  setenv(kVar, "99999999999999999999", 1);
  EXPECT_EQ(env_int(kVar, 7), 7);
}

TEST_F(EnvTest, StrFallback) {
  unsetenv(kVar);
  EXPECT_EQ(env_str(kVar, "dflt"), "dflt");
  EXPECT_EQ(env_str(kVar), "");
  setenv(kVar, "value", 1);
  EXPECT_EQ(env_str(kVar, "dflt"), "value");
}

}  // namespace
}  // namespace dcdiff::obs
