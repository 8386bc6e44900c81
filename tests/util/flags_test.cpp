#include "ntom/util/flags.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "ntom/util/spec.hpp"

namespace ntom {
namespace {

flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsSyntax) {
  const auto f = make({"--scale=paper", "--seed=99"});
  EXPECT_EQ(f.get_string("scale", "small"), "paper");
  EXPECT_EQ(f.get_int("seed", 0), 99);
}

TEST(FlagsTest, SpaceSyntax) {
  const auto f = make({"--seed", "17"});
  EXPECT_EQ(f.get_int("seed", 0), 17);
}

TEST(FlagsTest, BareFlagIsTrue) {
  const auto f = make({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_TRUE(f.has("verbose"));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const auto f = make({});
  EXPECT_EQ(f.get_string("scale", "small"), "small");
  EXPECT_EQ(f.get_int("seed", 42), 42);
  EXPECT_DOUBLE_EQ(f.get_double("frac", 0.1), 0.1);
  EXPECT_FALSE(f.get_bool("verbose", false));
  EXPECT_FALSE(f.has("anything"));
}

TEST(FlagsTest, DoubleParsing) {
  const auto f = make({"--frac=0.25"});
  EXPECT_DOUBLE_EQ(f.get_double("frac", 0.0), 0.25);
}

TEST(FlagsTest, BoolRecognizesSpellings) {
  EXPECT_TRUE(make({"--a=true"}).get_bool("a", false));
  EXPECT_TRUE(make({"--a=1"}).get_bool("a", false));
  EXPECT_TRUE(make({"--a=yes"}).get_bool("a", false));
  EXPECT_FALSE(make({"--a=false"}).get_bool("a", true));
  EXPECT_TRUE(make({"--a=on"}).get_bool("a", false));
  EXPECT_FALSE(make({"--a=0"}).get_bool("a", true));
  EXPECT_FALSE(make({"--a=no"}).get_bool("a", true));
  EXPECT_FALSE(make({"--a=off"}).get_bool("a", true));
}

TEST(FlagsTest, BoolRejectsUnrecognizedValue) {
  EXPECT_THROW((void)make({"--a=maybe"}).get_bool("a", false), flag_error);
  EXPECT_THROW((void)make({"--a="}).get_bool("a", false), flag_error);
  // A bare boolean before a positional takes it as its value: that
  // must fail instead of dropping the positional and reading false.
  const auto f = make({"capture", "--no-truth", "a.trc"});
  EXPECT_THROW((void)f.get_bool("no-truth", false), flag_error);
}

TEST(FlagsTest, PositionalArgumentsCollected) {
  const auto f = make({"input.txt", "--seed=1", "output.txt"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "output.txt");
}

TEST(FlagsTest, NamesListsSeenFlags) {
  const auto f = make({"--b=2", "--a=1"});
  const auto names = f.names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // std::map orders keys.
  EXPECT_EQ(names[1], "b");
}

TEST(FlagsTest, BareFlagFollowedByFlag) {
  const auto f = make({"--verbose", "--seed=3"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_EQ(f.get_int("seed", 0), 3);
}

TEST(FlagsTest, IntRejectsNonNumericAndTrailingGarbage) {
  EXPECT_THROW((void)make({"--window=abc"}).get_int("window", 16),
               flag_error);
  EXPECT_THROW((void)make({"--window=12x"}).get_int("window", 16),
               flag_error);
  EXPECT_THROW((void)make({"--window="}).get_int("window", 16), flag_error);
  EXPECT_THROW((void)make({"--window=1.5"}).get_int("window", 16),
               flag_error);
  EXPECT_THROW(
      (void)make({"--seed=99999999999999999999"}).get_int("seed", 0),
      flag_error);
  // A bare flag reads "true", which is not a number either.
  EXPECT_THROW((void)make({"--window"}).get_int("window", 16), flag_error);
  EXPECT_EQ(make({"--seed=-3"}).get_int("seed", 0), -3);
}

TEST(FlagsTest, ErrorNamesTheFlagAndValue) {
  try {
    (void)make({"--window=abc"}).get_int("window", 16);
    FAIL() << "expected flag_error";
  } catch (const flag_error& err) {
    EXPECT_NE(std::string(err.what()).find("--window=abc"),
              std::string::npos)
        << err.what();
  }
}

TEST(FlagsTest, SizeRejectsNegativeValues) {
  const auto f = make({"--replicas=-1", "--readers=3"});
  EXPECT_THROW((void)f.get_size("replicas", 2), flag_error);
  EXPECT_EQ(f.get_size("readers", 2), 3u);
  EXPECT_EQ(f.get_size("absent", 7), 7u);
  EXPECT_THROW((void)make({"--readers=two"}).get_size("readers", 2),
               flag_error);
  try {
    (void)f.get_size("replicas", 2);
  } catch (const flag_error& err) {
    EXPECT_NE(std::string(err.what()).find("--replicas=-1"),
              std::string::npos)
        << err.what();
  }
}

TEST(FlagsTest, DoubleRejectsNonNumericAndTrailingGarbage) {
  EXPECT_THROW((void)make({"--frac=abc"}).get_double("frac", 0.1),
               flag_error);
  EXPECT_THROW((void)make({"--frac=0.5x"}).get_double("frac", 0.1),
               flag_error);
  EXPECT_DOUBLE_EQ(make({"--frac=-2.5e-1"}).get_double("frac", 0.1), -0.25);
}

/// run_cli over `args` with the known list {"seed", "out"}; `body`
/// decides the outcome.
int run(std::initializer_list<const char*> args,
        const std::function<int(const flags&)>& body) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return run_cli(static_cast<int>(argv.size()), argv.data(), {"seed", "out"},
                 body);
}

TEST(RunCliTest, KnownFlagsReachTheBody) {
  EXPECT_EQ(run({"--seed=3", "--out", "x"},
                [](const flags& f) {
                  return static_cast<int>(f.get_int("seed", 0)) +
                         (f.get_string("out", "") == "x" ? 10 : 0);
                }),
            13);
}

TEST(RunCliTest, UnknownFlagExitsTwoBeforeTheBodyRuns) {
  bool ran = false;
  testing::internal::CaptureStderr();
  const int code = run({"--sede=3"}, [&](const flags&) {
    ran = true;
    return 0;
  });
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(code, 2);
  EXPECT_FALSE(ran);
  EXPECT_NE(err.find("--sede"), std::string::npos) << err;
}

TEST(RunCliTest, MapsErrorsToExitCodes) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(run({"--seed=x"},
                [](const flags& f) {
                  return static_cast<int>(f.get_int("seed", 0));
                }),
            2);
  EXPECT_EQ(run({}, [](const flags&) -> int { throw spec_error("bad spec"); }),
            2);
  EXPECT_EQ(
      run({}, [](const flags&) -> int { throw std::runtime_error("io"); }), 1);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--seed=x"), std::string::npos) << err;
  EXPECT_NE(err.find("bad spec"), std::string::npos) << err;
  EXPECT_NE(err.find("io"), std::string::npos) << err;
}

}  // namespace
}  // namespace ntom
