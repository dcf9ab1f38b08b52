#include "util/parse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace pghive::util {
namespace {

TEST(ParseInt64Test, ParsesPlainIntegers) {
  auto v = ParseInt64("42");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(*ParseInt64("-7"), -7);
  EXPECT_EQ(*ParseInt64("0"), 0);
}

TEST(ParseInt64Test, RejectsGarbageAndPartialParses) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("banana").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_FALSE(ParseInt64(" 3").ok());
  EXPECT_FALSE(ParseInt64("3 ").ok());
}

TEST(ParseInt64Test, RejectsOverflow) {
  auto v = ParseInt64("99999999999999999999999999");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(*ParseInt64(std::to_string(std::numeric_limits<int64_t>::max())),
            std::numeric_limits<int64_t>::max());
}

TEST(ParseInt64InRangeTest, EnforcesInclusiveBounds) {
  EXPECT_EQ(*ParseInt64InRange("5", 1, 10, "--knob"), 5);
  EXPECT_EQ(*ParseInt64InRange("1", 1, 10, "--knob"), 1);
  EXPECT_EQ(*ParseInt64InRange("10", 1, 10, "--knob"), 10);
  EXPECT_FALSE(ParseInt64InRange("0", 1, 10, "--knob").ok());
  EXPECT_FALSE(ParseInt64InRange("11", 1, 10, "--knob").ok());
}

TEST(ParseInt64InRangeTest, ErrorNamesTheKnob) {
  auto v = ParseInt64InRange("banana", 1, 10, "--batches");
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("--batches"), std::string::npos);
}

// The flag parser of both tools: "--key V", "--key=V" and bare switches.
TEST(ParseArgsTest, ReadsValuesAndSwitches) {
  const char* argv[] = {"tool",        "cmd",    "--port", "7",
                        "--out=x.pgs", "--loose"};
  auto args =
      ParseArgs(6, argv, 2, {"port", "out", "loose", "seed"}, {"loose"});
  ASSERT_TRUE(args.ok()) << args.status().ToString();
  EXPECT_EQ(args->Get("port"), "7");
  EXPECT_EQ(args->Get("out"), "x.pgs");
  EXPECT_TRUE(args->Has("loose"));
  EXPECT_FALSE(args->Has("seed"));
  EXPECT_EQ(args->Get("seed", "42"), "42");
}

TEST(ParseArgsTest, RefusesWhatItCannotReadAsTyped) {
  auto message = [](std::vector<const char*> argv) {
    auto args = ParseArgs(static_cast<int>(argv.size()), argv.data(), 1,
                          {"port", "port-file", "loose"}, {"loose"});
    EXPECT_FALSE(args.ok());
    EXPECT_EQ(args.status().code(), StatusCode::kInvalidArgument);
    return args.status().message();
  };
  EXPECT_EQ(message({"d", "--port-file", "--threads=4"}),
            "--port-file needs a value");
  EXPECT_EQ(message({"d", "--port"}), "--port needs a value");
  EXPECT_EQ(message({"d", "--threads", "4"}), "unknown option --threads");
  EXPECT_EQ(message({"d", "--port", "1", "--port=2"}),
            "duplicate option --port");
  EXPECT_EQ(message({"d", "--loose=no"}),
            "--loose is a switch and takes no value");
  EXPECT_EQ(message({"d", "extra"}), "unexpected argument 'extra'");
}

}  // namespace
}  // namespace pghive::util
