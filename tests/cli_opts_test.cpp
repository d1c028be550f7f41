/**
 * @file
 * Tests for hardened CLI parsing: every malformed value must be
 * rejected with a diagnostic naming the option, never silently
 * truncated the way atoi/stoi would. Also walks the option tables of
 * mopsim, mopsuite and moptrace through their entries: every usage
 * error exits 2 with one line before any work.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/render.hh"
#include "sim/cli_opts.hh"
#include "sim/config.hh"
#include "sweep/perf_track.hh"
#include "sweep/suite.hh"
#include "tool_test.hh"

namespace
{

using mop::sim::parseIntOption;
using mop::sim::parseUintOption;
using mop::test::Outcome;
using mop::test::runEntry;

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
    // The whole token means no leading blank or '+' either (strtoll
    // and strtoull skip and accept both).
    for (const char *v : {" 2000", "\t5", "+5"}) {
        EXPECT_THROW(parseIntOption("--iq", v, 0, 65536),
                     std::invalid_argument)
            << "'" << v << "'";
        EXPECT_THROW(parseUintOption("--insts", v, 1, 1'000'000),
                     std::invalid_argument)
            << "'" << v << "'";
    }
}

TEST(CliOpts, DecimalsArePlainAndFinite)
{
    using mop::sim::parseDecimalOption;
    EXPECT_EQ(parseDecimalOption("--fail-on", "0.1", 0, 1e6), 0.1);
    EXPECT_EQ(parseDecimalOption("--fail-on", "5", 0, 1e6), 5.0);
    EXPECT_EQ(parseDecimalOption("--fail-on", ".5", 0, 1e6), 0.5);
    EXPECT_EQ(parseDecimalOption("--x", "-2.5", -10, 10), -2.5);
    for (const char *v : {"", ".", "-", "nan", "inf", "1e3", "0x10", " 1",
                          "+1", "1.2.3", "12abc", "-5", "2000000"}) {
        EXPECT_THROW(parseDecimalOption("--fail-on", v, 0, 1e6),
                     std::invalid_argument)
            << "'" << v << "'";
    }
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
    const char *diagnostic;  ///< expected in the one stderr line
    const char *mopInsts = nullptr;  ///< $MOP_INSTS for the case
    /** Run on a scratch --cache-dir instead of --no-cache. */
    bool cached = false;
};

/** A usage error: exit 2, nothing on stdout, and one stderr line that
 *  starts with @p prefix and names @p what. */
void
expectUsageError(const Outcome &o, const std::string &prefix,
                 const std::string &what, const std::string &cmdline)
{
    EXPECT_EQ(o.rc, 2) << cmdline;
    EXPECT_EQ(o.out, "") << cmdline;
    EXPECT_EQ(o.err.rfind(prefix, 0), 0u) << cmdline << ": " << o.err;
    EXPECT_NE(o.err.find(what), std::string::npos) << cmdline << ": " << o.err;
    EXPECT_EQ(o.err.find('\n'), o.err.size() - 1) << cmdline << ": " << o.err;
}

std::string
joined(const std::vector<std::string> &args)
{
    std::string s;
    for (const std::string &a : args) {
        if (!s.empty())
            s += ' ';
        s += '\'';
        s += a;
        s += '\'';
    }
    return s;
}

TEST(SuiteMain, UsageErrorsExit2BeforeAnyWork)
{
    // The malformed values of every row are OptionTables.WalkEveryRow's;
    // these are the inputs it cannot derive from the table.
    const UsageCase cases[] = {
        {{"--isolate"}, "unknown option '--isolate'"},
        {{"--job-timeout", "5"}, "unknown option '--job-timeout'"},
        {{"--max-attempts", "2"}, "unknown option '--max-attempts'"},
        {{"--sweep-inject", "crash"}, "unknown option '--sweep-inject'"},
        {{"--sweep-seed", "1"}, "unknown option '--sweep-seed'"},
        {{"--resume"}, "unknown option '--resume'"},
        {{"--no-resume"}, "unknown option '--no-resume'"},
        {{"--only", ","}, "--only names no figure"},
        {{"--only", "table2", "--only", ""}, "--only names no figure"},
        {{"--only", "table2"}, "MOP_INSTS", "1e6"},
        {{"--only", "table2"}, "MOP_INSTS", "abc"},
        {{"--only", "table2"}, "MOP_INSTS", "-1"},
        {{"--only", "table2"}, "MOP_INSTS", " 2000"},
        {{"--only", "table2"}, "MOP_INSTS", "1099511627777"},
        {{"--cache-verify"}, "--cache-verify needs the cache"},
        // A run served from the cache is not measured.
        {{"--only", "table2", "--perf-gate", "10"}, "--perf-gate", nullptr,
         true},
        {{"--only", "table2", "--perf-pin", "x"}, "--perf-pin", nullptr, true},
        // Nor is a selection that plans no simulation run.
        {{"--only", "_test-table", "--perf-pin", "x"}, "--perf-pin"},
        {{"--only", "_test-grouping", "--perf-gate", "10"}, "--perf-gate"},
    };
    // Like table1 (no run) and fig6 (characterization runs only).
    using mop::sweep::Context;
    mop::sweep::Suite::instance().add(
        {"_test-table", "plans no run",
         [](Context &, std::ostream &out) { out << "table\n"; }});
    mop::sweep::Suite::instance().add(
        {"_test-grouping", "plans a grouping run only",
         [](Context &ctx, std::ostream &) { ctx.grouping("gzip", 2); }});
    const std::string cacheDir = testing::TempDir() + "mop-suitemain-cache";
    for (const UsageCase &c : cases) {
        // Should a case slip through, keep the sweep it starts off the
        // user's cache and out of the working directory.
        std::vector<std::string> args = {"mopsuite", "--perf", ""};
        if (c.cached) {
            args.push_back("--cache-dir");
            args.push_back(cacheDir);
        } else {
            args.push_back("--no-cache");
        }
        args.insert(args.end(), c.args.begin(), c.args.end());
        std::string what = joined(args);
        if (c.mopInsts) {
            setenv("MOP_INSTS", c.mopInsts, 1);
            what += " with MOP_INSTS=" + std::string(c.mopInsts);
        }
        Outcome o = runEntry(mop::sweep::suiteMain, args);
        unsetenv("MOP_INSTS");
        expectUsageError(o, "mopsuite: ", c.diagnostic, what);
    }
}

/** One tool's command line: its option table and its entry. */
struct Tool
{
    const char *name;
    const char *prefix;  ///< of every usage error
    std::vector<mop::sim::Opt> (*table)();
    int (*entry)(int, char **);
    /** What precedes @p flag on a command line that may carry it. */
    std::vector<std::string> (*lead)(const std::string &flag);
    /** Its rows; those with a numeric range; the others that refuse
     *  some value (a token row, say). */
    size_t rows, numeric, checked;
};

/** moptrace takes a row's flag after the traces of its command. */
std::vector<std::string>
moptraceLead(const std::string &flag)
{
    if (flag == "--interval")
        return {"moptrace", "timeline", "nosuch.evt"};
    if (flag == "--fail-on")
        return {"moptrace", "diff", "a.evt", "b.evt"};
    return {"moptrace", "render", "nosuch.evt"};
}

const Tool kTools[] = {
    {"mopsim", "error: ",
     [] {
         static mop::sim::MopsimArgs a;
         return mop::sim::mopsimOptions(a);
     },
     mop::sim::mopsimMain,
     [](const std::string &) { return std::vector<std::string>{"mopsim"}; },
     29, 11, 4},
    {"mopsuite", "mopsuite: ",
     [] {
         static mop::sweep::SuiteOptions o;
         static bool list, help;
         return mop::sweep::suiteOptions(o, list, help);
     },
     mop::sweep::suiteMain,
     [](const std::string &) {
         return std::vector<std::string>{"mopsuite", "--perf", ""};
     },
     21, 6, 1},
    {"moptrace", "moptrace: ",
     [] {
         static mop::obs::MoptraceArgs a;
         return mop::obs::moptraceOptions(a);
     },
     mop::obs::moptraceMain, moptraceLead, 7, 3, 1},
};

/** @p n + 1 for a non-negative decimal integer text. */
std::string
plusOne(std::string n)
{
    size_t i = n.size();
    while (i > 0 && n[i - 1] == '9')
        n[--i] = '0';
    if (i == 0)
        return "1" + n;
    ++n[i - 1];
    return n;
}

/** Why @p row's setter refuses @p value ("" when it takes it). */
std::string
refusal(const mop::sim::Opt &row, const std::string &value)
{
    try {
        row.apply(value);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

/**
 * Every row of every table, walked through its tool's entry: each
 * malformed input is exit 2, one stderr line naming the flag or the
 * argument at fault, and nothing on stdout. --help names every row,
 * and every numeric row takes its min and its max.
 */
TEST(OptionTables, WalkEveryRow)
{
    using mop::sim::Opt;
    for (const Tool &t : kTools) {
        const std::vector<Opt> table = t.table();
        EXPECT_EQ(table.size(), t.rows) << t.name;
        size_t numeric = 0, checked = 0;
        // Each bad input must first be refused by the parser, so one
        // that slipped through starts no work (--difftest=1000001 would
        // run for hours), then through the entry as a usage error.
        auto expectRefused = [&](const std::string &flag,
                                 std::vector<std::string> tail,
                                 const std::string &what) {
            std::vector<std::string> args = t.lead(flag);
            std::vector<const char *> argv = {args.back().c_str()};
            for (const std::string &a : tail)
                argv.push_back(a.c_str());
            try {
                mop::sim::parseArgs(t.table(), int(argv.size()), argv.data());
                ADD_FAILURE() << "parsed: " << joined(tail);
                return;
            } catch (const std::invalid_argument &) {
            }
            args.insert(args.end(), tail.begin(), tail.end());
            expectUsageError(runEntry(t.entry, args), t.prefix, what,
                             joined(args));
        };
        for (const Opt &row : table) {
            const std::string &f = row.flag;
            // A numeric row names its range [lo, hi] when it refuses a
            // value; any other row is walked with the values it refuses
            // (a token row: an unknown token and empty).
            std::string lo, hi, why = row.apply ? refusal(row, "") : "";
            std::vector<std::string> bad;
            if (size_t at = why.find(" in ["); at != std::string::npos) {
                size_t comma = why.find(", ", at);
                lo = why.substr(at + 5, comma - at - 5);
                hi = why.substr(comma + 2, why.size() - comma - 3);
                bad = {std::to_string(std::stoll(lo) - 1), plusOne(hi), "",
                       " " + lo, "+" + lo, lo + "x"};
                ++numeric;
            } else if (row.apply) {
                for (const char *v : {"nosuch", ""})
                    if (!refusal(row, v).empty())
                        bad.push_back(v);
                checked += !bad.empty();
            }
            for (const std::string &v : bad) {
                expectRefused(f, {f + "=" + v}, f);
                if (!row.bare)
                    expectRefused(f, {f, v}, f);
            }
            if (row.apply && !row.bare)
                expectRefused(f, {f}, "missing value for " + f);
            if (!row.apply)
                expectRefused(f, {f + "=x"}, f + " takes no value");

            // The range's ends parse, and nothing runs.
            for (const std::string &v : {lo, hi}) {
                if (v.empty())
                    continue;
                const std::vector<std::string> forms[] = {
                    {t.name, f + "=" + v}, {t.name, f, v}};
                for (const auto &args : forms) {
                    if (row.bare && args.size() == 3)
                        continue;
                    std::vector<const char *> argv;
                    for (const std::string &a : args)
                        argv.push_back(a.c_str());
                    EXPECT_NO_THROW(mop::sim::parseArgs(
                        table, int(argv.size()), argv.data()))
                        << joined(args);
                }
            }
        }
        EXPECT_EQ(numeric, t.numeric) << t.name;
        EXPECT_EQ(checked, t.checked) << t.name;
        expectRefused("", {"--bogus"}, "unknown option '--bogus'");
        expectRefused("", {"-x"}, "unknown option '-x'");

        // --help (and -h) lists every row on stdout and exits 0.
        for (const char *help : {"--help", "-h"}) {
            Outcome o = runEntry(t.entry, {t.name, help});
            EXPECT_EQ(o.rc, 0) << t.name << " " << help;
            EXPECT_EQ(o.err, "") << t.name << " " << help;
            for (const Opt &row : table) {
                // "  --difftest " must not pass for --difftest-seed.
                bool named = false;
                for (const char *next : {" ", "[", "\n"})
                    named |= o.out.find("\n  " + row.flag + next) !=
                             std::string::npos;
                EXPECT_TRUE(named) << t.name << " --help lacks " << row.flag;
            }
        }
    }
    // The optional value comes only after '='.
    expectUsageError(runEntry(mop::sim::mopsimMain,
                              {"mopsim", "--wrong-path", "8"}),
                     "error: ", "stray argument '8'", "--wrong-path 8");
    expectUsageError(runEntry(mop::sim::mopsimMain, {"mopsim", "stray"}),
                     "error: ", "stray argument 'stray'", "mopsim stray");
    expectUsageError(
        runEntry(mop::sweep::suiteMain, {"mopsuite", "--no-cache", "stray"}),
        "mopsuite: ", "stray argument 'stray'", "mopsuite stray");
    // The trace is binary whatever its name; Chrome JSON is moptrace's
    // view of it.
    expectUsageError(runEntry(mop::sim::mopsimMain,
                              {"mopsim", "--bench", "gzip", "--trace-out",
                               "cli-trace.json"}),
                     "error: ", "moptrace json", "--trace-out cli-trace.json");
    EXPECT_FALSE(std::filesystem::exists("cli-trace.json"));
    // --help and --list act once the whole line has parsed.
    expectUsageError(runEntry(mop::sim::mopsimMain,
                              {"mopsim", "--list", "--iq", "abc"}),
                     "error: ", "--iq", "mopsim --list --iq abc");

    // moptrace: each command's trace count and options.
    struct Cmd
    {
        std::vector<std::string> args;  ///< with exactly its traces
        const char *foreign;            ///< an option of another command
    };
    const Cmd cmds[] = {
        {{"report", "a.evt"}, "--interval"},
        {{"timeline", "a.evt"}, "--fail-on"},
        {{"critpath", "a.evt"}, "--interval"},
        {{"diff", "a.evt", "b.evt"}, "--critpath"},
        {{"render", "a.evt"}, "--fail-on"},
        {{"json", "a.evt"}, "--interval"},
    };
    for (const Cmd &c : cmds) {
        std::vector<std::string> args = {"moptrace"};
        args.insert(args.end(), c.args.begin(), c.args.end());
        std::vector<std::string> few(args.begin(), args.end() - 1);
        expectUsageError(runEntry(mop::obs::moptraceMain, few), "moptrace: ",
                         c.args[0], joined(few));
        std::vector<std::string> many = args;
        many.push_back("extra.evt");
        expectUsageError(runEntry(mop::obs::moptraceMain, many), "moptrace: ",
                         "'extra.evt'", joined(many));
        std::vector<std::string> foreign = args;
        foreign.push_back(c.foreign);
        if (std::string(c.foreign) != "--critpath")
            foreign.push_back("1");
        expectUsageError(runEntry(mop::obs::moptraceMain, foreign),
                         "moptrace: ", c.foreign, joined(foreign));
    }
    expectUsageError(runEntry(mop::obs::moptraceMain, {"moptrace"}),
                     "moptrace: ", "missing command", "moptrace");
    expectUsageError(
        runEntry(mop::obs::moptraceMain, {"moptrace", "bogus", "a.evt"}),
        "moptrace: ", "'bogus'", "moptrace bogus a.evt");
    expectUsageError(runEntry(mop::obs::moptraceMain,
                              {"moptrace", "render", "a.evt", "--window",
                               "9:3"}),
                     "moptrace: ", "--window", "--window 9:3");
    expectUsageError(runEntry(mop::obs::moptraceMain,
                              {"moptrace", "render", "a.evt", "--window",
                               "9"}),
                     "moptrace: ", "--window", "--window 9");
}

TEST(ToolEntries, FailedStdoutWriteIsOneErrorLine)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full";
    // Like table1: a figure that prints a table and plans no run.
    mop::sweep::Suite::instance().add(
        {"_test-stdout", "prints a table",
         [](mop::sweep::Context &, std::ostream &out) { out << "table\n"; }});
    struct Case
    {
        int (*entry)(int, char **);
        std::vector<std::string> args;
        const char *err;
    };
    const Case cases[] = {
        {mop::sim::mopsimMain,
         {"mopsim", "--bench", "gzip", "--machine", "base", "--insts", "2000"},
         "error: cannot write stdout\n"},
        {mop::sim::mopsimMain, {"mopsim", "--list"},
         "error: cannot write stdout\n"},
        {mop::sim::mopsimMain, {"mopsim", "--help"},
         "error: cannot write stdout\n"},
        {mop::sweep::suiteMain,
         {"mopsuite", "--only", "_test-stdout", "--quiet", "--no-cache",
          "--perf", ""},
         "mopsuite: cannot write stdout\n"},
        {mop::sweep::suiteMain, {"mopsuite", "--list"},
         "mopsuite: cannot write stdout\n"},
        {mop::sweep::suiteMain, {"mopsuite", "--help"},
         "mopsuite: cannot write stdout\n"},
    };
    for (const Case &c : cases) {
        Outcome o = mop::test::runEntryToFull(c.entry, c.args);
        EXPECT_EQ(o.rc, 1) << joined(c.args);
        EXPECT_EQ(o.err, c.err) << joined(c.args);
    }
}

/** A BENCH_core.json holding one entry line, @p entry. */
std::string
trajectory(const std::string &entry)
{
    return "{\n  \"schema\": \"mop-core-perf-1\",\n  \"entries\": [\n    " +
           entry + "\n  ]\n}\n";
}

TEST(PerfTrajectory, MalformedEntryExits2BeforeAnyRun)
{
    mop::sweep::Suite::instance().add(
        {"_test-sim", "plans one simulation run",
         [](mop::sweep::Context &ctx, std::ostream &out) {
             out << ctx.baseIpc("gzip", 32) << "\n";
         }});
    const std::string good =
        "{\"label\": \"x\", \"sim_version\": \"v\", \"jobs\": 1, "
        "\"insts_per_run\": 2000, \"repeats\": 3, \"ips_median\": 1811986.8, "
        "\"ips_min\": 1799811.9, \"ips_max\": 1845364.7}";
    struct Bad
    {
        std::string from, to, what;
    };
    const Bad cases[] = {
        {"1811986.8", "\"fast\"", "ips_median"},
        {"\"repeats\": 3, ", "", "no \"repeats\""},
        {"2000", "2000x", "insts_per_run"},
        {"}", "} x", "trailing text"},
        {"1,", "1 2,", "jobs"},
        {"1799811.9", "-1", "ips_min"},
        {"1845364.7", "nan", "ips_max"},
        {"1845364.7", "1e999", "ips_max"},
        {"\"jobs\": 1", "\"jobs\": 0", "jobs"},
        {"\"x\"", "7", "\"label\" is not a string"},
    };
    const std::string path = testing::TempDir() + "mop-bad-trajectory.json";
    const std::string dash = testing::TempDir() + "mop-bad-dash.html";
    for (const Bad &c : cases) {
        std::string entry = good;
        entry.replace(entry.find(c.from), c.from.size(), c.to);
        std::ofstream(path) << trajectory(entry);
        const std::vector<std::string> uses[] = {
            {"--perf-gate", "10"}, {"--perf-pin", "y"}, {"--render-dash", dash}};
        for (const std::vector<std::string> &use : uses) {
            std::vector<std::string> args = {
                "mopsuite", "--only", "_test-sim", "--insts", "2000",
                "--no-cache", "--quiet", "--perf", "", "--perf-baseline",
                path};
            args.insert(args.end(), use.begin(), use.end());
            expectUsageError(runEntry(mop::sweep::suiteMain, args),
                             "mopsuite: ", c.what, entry + " " + use[0]);
        }
        std::ifstream in(path);
        std::stringstream kept;
        kept << in.rdbuf();
        EXPECT_EQ(kept.str(), trajectory(entry)) << "--perf-pin wrote";
        EXPECT_FALSE(std::filesystem::exists(dash));
    }
    std::ofstream(path) << trajectory(good);
    const auto entries = mop::sweep::readPerfEntries(path);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].label, "x");
    EXPECT_EQ(entries[0].instsPerRun, 2000u);
    EXPECT_DOUBLE_EQ(entries[0].ipsMedian, 1811986.8);
    std::remove(path.c_str());
}

TEST(PerfTrajectory, PinnedAndCommittedEntriesRead)
{
    // Every entry pinned so far.
    const auto committed =
        mop::sweep::readPerfEntries(MOP_SOURCE_DIR "/BENCH_core.json");
    ASSERT_GE(committed.size(), 2u);
    for (const auto &e : committed) {
        EXPECT_FALSE(e.label.empty());
        EXPECT_LE(e.ipsMin, e.ipsMedian) << e.label;
        EXPECT_LE(e.ipsMedian, e.ipsMax) << e.label;
    }
    // A pin reads back as written, escapes included.
    const std::string path = testing::TempDir() + "mop-pin-trajectory.json";
    std::remove(path.c_str());
    mop::sweep::PerfEntry e;
    e.label = "a \"quoted\" \\ label";
    e.simVersion = "v";
    e.jobs = 2;
    e.instsPerRun = 2000;
    e.repeats = 3;
    e.ipsMedian = 1234567.125;
    e.ipsMin = 1000000;
    e.ipsMax = 1500000.5;
    mop::sweep::appendPerfEntry(path, e);
    mop::sweep::appendPerfEntry(path, e);
    const auto read = mop::sweep::readPerfEntries(path);
    std::remove(path.c_str());
    ASSERT_EQ(read.size(), 2u);
    EXPECT_EQ(read[1].label, e.label);
    EXPECT_EQ(read[1].jobs, 2);
    EXPECT_EQ(read[1].repeats, 3);
    EXPECT_EQ(read[1].ipsMedian, e.ipsMedian);
    EXPECT_EQ(read[1].ipsMin, e.ipsMin);
    EXPECT_EQ(read[1].ipsMax, e.ipsMax);
}

} // namespace
