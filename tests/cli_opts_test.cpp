/**
 * @file
 * Tests for hardened CLI numeric parsing: every malformed value must be
 * rejected with a diagnostic naming the option, never silently
 * truncated the way atoi/stoi would. Also covers mopsuite's usage
 * errors, which must exit 2 before any work.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "sim/cli_opts.hh"
#include "sweep/suite.hh"

namespace
{

using mop::sim::parseIntOption;
using mop::sim::parseUintOption;

TEST(CliOpts, AcceptsPlainIntegers)
{
    EXPECT_EQ(parseIntOption("--iq", "32", 0, 65536), 32);
    EXPECT_EQ(parseIntOption("--iq", "0", 0, 65536), 0);
    EXPECT_EQ(parseIntOption("--iq", "65536", 0, 65536), 65536);
    EXPECT_EQ(parseIntOption("--x", "-5", -10, 10), -5);
    EXPECT_EQ(parseUintOption("--insts", "1000000000000", 1,
                              2'000'000'000'000ULL),
              1'000'000'000'000ULL);
}

TEST(CliOpts, RejectsTrailingGarbage)
{
    EXPECT_THROW(parseIntOption("--iq", "32x", 0, 65536),
                 std::invalid_argument);
    EXPECT_THROW(parseIntOption("--iq", "3.5", 0, 65536),
                 std::invalid_argument);
    EXPECT_THROW(parseIntOption("--iq", "1e3", 0, 65536),
                 std::invalid_argument);
    EXPECT_THROW(parseUintOption("--insts", "10 20", 1, 100),
                 std::invalid_argument);
}

TEST(CliOpts, RejectsEmptyAndNonNumeric)
{
    EXPECT_THROW(parseIntOption("--iq", "", 0, 65536),
                 std::invalid_argument);
    EXPECT_THROW(parseIntOption("--iq", "lots", 0, 65536),
                 std::invalid_argument);
    EXPECT_THROW(parseUintOption("--seed", "seed", 0, ~0ULL),
                 std::invalid_argument);
}

TEST(CliOpts, RejectsOutOfRange)
{
    EXPECT_THROW(parseIntOption("--mop-size", "5", 2, 4),
                 std::invalid_argument);
    EXPECT_THROW(parseIntOption("--mop-size", "1", 2, 4),
                 std::invalid_argument);
    EXPECT_THROW(parseIntOption("--iq", "-1", 0, 65536),
                 std::invalid_argument);
    EXPECT_THROW(parseIntOption("--iq", "99999999999999999999", 0, 65536),
                 std::invalid_argument);  // overflows long long too
}

TEST(CliOpts, UnsignedRejectsNegatives)
{
    // strtoull would happily wrap "-1" to 2^64-1; the parser must not.
    EXPECT_THROW(parseUintOption("--insts", "-1", 1, 1000),
                 std::invalid_argument);
    EXPECT_THROW(parseUintOption("--insts", " -7", 1, 1000),
                 std::invalid_argument);
}

TEST(CliOpts, DiagnosticNamesTheOption)
{
    try {
        parseIntOption("--detect-delay", "soon", 0, 1'000'000);
        FAIL() << "must throw";
    } catch (const std::invalid_argument &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("--detect-delay"), std::string::npos);
        EXPECT_NE(msg.find("soon"), std::string::npos);
    }
}

struct UsageCase
{
    std::vector<std::string> args;
    const char *diagnostic;  ///< expected in the first stderr line
    bool oneLine;            ///< the diagnostic is the whole of stderr
    const char *mopInsts = nullptr;  ///< $MOP_INSTS for the case
};

TEST(SuiteMain, UsageErrorsExit2BeforeAnyWork)
{
    const UsageCase cases[] = {
        {{"--jobs", "0"}, "--jobs", true},
        {{"--insts", "5x"}, "--insts", true},
        {{"--wrong-path=0"}, "--wrong-path", true},
        {{"--perf-gate", "101"}, "--perf-gate", true},
        {{"--sweep-inject", "bogus", "--isolate"}, "unknown fault kind",
         true},
        {{"--sweep-inject", "crash"}, "requires --isolate", true},
        {{"--repeat", "3", "--isolate"}, "--repeat", true},
        {{"--only", ","}, "--only names no figure", true},
        {{"--only", "table2", "--only", ""}, "--only names no figure",
         true},
        {{"--jobs"}, "--jobs requires a value", true},
        {{"--resume"}, "unknown option '--resume'", false},
        {{"--no-resume"}, "unknown option '--no-resume'", false},
        {{"--only", "table2"}, "MOP_INSTS", true, "1e6"},
        {{"--only", "table2"}, "MOP_INSTS", true, "abc"},
        {{"--only", "table2"}, "MOP_INSTS", true, "-1"},
    };
    for (const UsageCase &c : cases) {
        // Should a case slip through, keep the sweep it starts off the
        // user's cache and out of the working directory.
        std::vector<std::string> args = {"mopsuite", "--no-cache",
                                         "--perf", ""};
        std::string what;
        for (const std::string &a : c.args) {
            args.push_back(a);
            what += " " + a;
        }
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());

        if (c.mopInsts) {
            setenv("MOP_INSTS", c.mopInsts, 1);
            what += " with MOP_INSTS=" + std::string(c.mopInsts);
        }
        testing::internal::CaptureStdout();
        testing::internal::CaptureStderr();
        int rc = mop::sweep::suiteMain(int(argv.size()), argv.data());
        std::string out = testing::internal::GetCapturedStdout();
        std::string err = testing::internal::GetCapturedStderr();
        unsetenv("MOP_INSTS");

        EXPECT_EQ(rc, 2) << what;
        EXPECT_EQ(out, "") << what;
        const std::string first = err.substr(0, err.find('\n'));
        EXPECT_EQ(first.rfind("mopsuite: ", 0), 0u) << what << ": " << err;
        EXPECT_NE(first.find(c.diagnostic), std::string::npos)
            << what << ": " << err;
        if (c.oneLine) {
            EXPECT_EQ(err, first + "\n") << what;
        }
    }
}

} // namespace
