/**
 * @file
 * Shared by the tests of the command-line tools: runEntry runs a
 * tool's entry (mopsimMain, suiteMain, moptraceMain) in the test
 * process and captures what it printed, runEntryToFull runs one with
 * standard output on /dev/full, and JsonChecker checks the
 * syntax of the JSON the tools write (moptrace's Chrome-trace view,
 * rendered pages' data blocks, the dashboard) without an external
 * parser dependency.
 */

#ifndef MOP_TESTS_TOOL_TEST_HH
#define MOP_TESTS_TOOL_TEST_HH

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

namespace mop::test
{

/** What a tool's entry did with one command line. */
struct Outcome
{
    int rc;
    std::string out, err;
};

/** @p args[0] is the tool's name. */
inline Outcome
runEntry(int (*entry)(int, char **), std::vector<std::string> args)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int rc = entry(int(argv.size()), argv.data());
    std::string out = testing::internal::GetCapturedStdout();
    return {rc, out, testing::internal::GetCapturedStderr()};
}

/** runEntry with standard output on /dev/full, where every write
 *  fails (`tool ... > /dev/full`); out stays empty. The caller skips
 *  the test on a host without /dev/full. */
inline Outcome
runEntryToFull(int (*entry)(int, char **), std::vector<std::string> args)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    std::fflush(stdout);
    const int saved = ::dup(1);
    const int full = ::open("/dev/full", O_WRONLY);
    EXPECT_GE(full, 0);
    ::dup2(full, 1);
    ::close(full);
    testing::internal::CaptureStderr();
    const int rc = entry(int(argv.size()), argv.data());
    std::string err = testing::internal::GetCapturedStderr();
    std::cout.clear();
    std::clearerr(stdout);
    ::dup2(saved, 1);
    ::close(saved);
    return {rc, "", err};
}

/** document() is true when the whole text is one JSON value. */
struct JsonChecker
{
    const char *p;
    const char *end;
    int depth = 0;

    explicit JsonChecker(const std::string &s)
        : p(s.data()), end(s.data() + s.size())
    {
    }

    void ws()
    {
        while (p < end &&
               (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
            ++p;
    }

    /** Skip blanks, then consume @p c if it comes next. */
    bool eat(char c)
    {
        ws();
        if (p >= end || *p != c)
            return false;
        ++p;
        return true;
    }

    bool lit(const char *s)
    {
        size_t n = std::strlen(s);
        if (size_t(end - p) < n || std::strncmp(p, s, n) != 0)
            return false;
        p += n;
        return true;
    }

    bool string()
    {
        if (p >= end || *p != '"')
            return false;
        ++p;
        while (p < end && *p != '"') {
            if (*p == '\\') {
                ++p;
                if (p >= end)
                    return false;
            }
            ++p;
        }
        if (p >= end)
            return false;
        ++p;  // closing quote
        return true;
    }

    bool number()
    {
        const char *start = p;
        if (p < end && *p == '-')
            ++p;
        while (p < end && (std::isdigit(static_cast<unsigned char>(*p)) ||
                           *p == '.' || *p == 'e' || *p == 'E' || *p == '+' ||
                           *p == '-'))
            ++p;
        return p > start;
    }

    /** The members of an object (@p keyed) or an array, after its
     *  opening bracket, through @p close. */
    bool members(char close, bool keyed)
    {
        if (eat(close))
            return true;
        do {
            ws();
            if (keyed && !(string() && eat(':')))
                return false;
            if (!value())
                return false;
        } while (eat(','));
        return eat(close);
    }

    bool value()
    {
        if (++depth > 64)
            return false;
        ws();
        bool ok = false;
        if (eat('{'))
            ok = members('}', true);
        else if (eat('['))
            ok = members(']', false);
        else if (p < end && *p == '"')
            ok = string();
        else
            ok = lit("true") || lit("false") || lit("null") || number();
        --depth;
        return ok;
    }

    bool document()
    {
        bool ok = value();
        ws();
        return ok && p == end;
    }
};

} // namespace mop::test

#endif // MOP_TESTS_TOOL_TEST_HH
