#include "sim/cli_opts.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace mop::sim
{

namespace
{

[[noreturn]] void
bad(const std::string &opt, const std::string &value, const std::string &lo,
    const std::string &hi, const char *what = "an integer")
{
    throw std::invalid_argument("bad value '" + value + "' for " + opt +
                                ": expected " + what + " in [" + lo + ", " +
                                hi + "]");
}

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** strto* skip leading blanks and accept a '+'; the token must instead
 *  start with a digit (or '-', where @p sign allows one). */
bool
startsLikeANumber(const std::string &value, bool sign)
{
    return !value.empty() &&
           (isDigit(value[0]) || (sign && value[0] == '-'));
}

} // namespace

int64_t
parseIntOption(const std::string &opt, const std::string &value,
               int64_t lo, int64_t hi)
{
    if (!startsLikeANumber(value, true))
        bad(opt, value, std::to_string(lo), std::to_string(hi));
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(value.c_str(), &end, 10);
    if (end != value.c_str() + value.size() || errno == ERANGE || v < lo ||
        v > hi) {
        bad(opt, value, std::to_string(lo), std::to_string(hi));
    }
    return int64_t(v);
}

uint64_t
parseUintOption(const std::string &opt, const std::string &value,
                uint64_t lo, uint64_t hi)
{
    // strtoull accepts "-1" by wrapping: no sign at all here.
    if (!startsLikeANumber(value, false))
        bad(opt, value, std::to_string(lo), std::to_string(hi));
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (end != value.c_str() + value.size() || errno == ERANGE || v < lo ||
        v > hi) {
        bad(opt, value, std::to_string(lo), std::to_string(hi));
    }
    return uint64_t(v);
}

double
parseDecimalOption(const std::string &opt, const std::string &value,
                   double lo, double hi)
{
    auto text = [](double v) {
        std::ostringstream os;
        os << std::setprecision(15) << v;
        return os.str();
    };
    // Plain decimals only -- an optional '-', digits, at most one '.'
    // -- so strtod never sees a blank, an exponent, a hex float, "nan"
    // or "inf", and the value is finite.
    const size_t sign = !value.empty() && value[0] == '-' ? 1 : 0;
    size_t digits = 0, dots = 0;
    for (char c : value) {
        digits += isDigit(c);
        dots += c == '.';
    }
    if (digits == 0 || dots > 1 || sign + digits + dots != value.size())
        bad(opt, value, text(lo), text(hi), "a decimal");
    double v = std::strtod(value.c_str(), nullptr);
    if (v < lo || v > hi)
        bad(opt, value, text(lo), text(hi), "a decimal");
    return v;
}

Opt
switchOpt(std::string flag, std::string help, bool &field, bool value)
{
    return {flag, "", help, {}, [&field, value] { field = value; }};
}

Opt
tokenOpt(std::string flag, std::string metavar, std::string help,
         const std::vector<std::string> &tokens,
         std::function<bool(const std::string &)> parse)
{
    std::string list;
    for (const std::string &t : tokens)
        list += (list.empty() ? "" : ", ") + t;
    return {flag, metavar, help + " (" + list + ")",
            [=](const std::string &v) {
                if (!parse(v))
                    throw std::invalid_argument("bad value '" + v + "' for " +
                                                flag + ": expected one of " +
                                                list);
            }};
}

void
parseArgs(const std::vector<Opt> &table, int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.size() < 2 || arg[0] != '-')
            throw std::invalid_argument("stray argument '" + arg + "'");
        const size_t eq = arg.find('=');
        std::string name = arg.substr(0, eq);
        if (name == "-h")
            name = "--help";
        auto row = std::find_if(table.begin(), table.end(),
                                [&](const Opt &o) { return o.flag == name; });
        if (row == table.end())
            throw std::invalid_argument("unknown option '" + name + "'");
        if (eq != std::string::npos && !row->apply)
            throw std::invalid_argument(name + " takes no value");
        if (eq == std::string::npos && !row->bare && i + 1 == argc)
            throw std::invalid_argument("missing value for " + name);
        if (row->bare)
            row->bare();
        if (eq != std::string::npos)
            row->apply(arg.substr(eq + 1));
        else if (!row->bare)
            row->apply(argv[++i]);
    }
}

void
printUsage(std::ostream &os, const std::vector<Opt> &table)
{
    for (const Opt &o : table) {
        std::string flag = o.flag;
        if (o.apply)
            flag += o.bare ? "[=" + o.metavar + "]" : " " + o.metavar;
        flag.resize(std::max<size_t>(flag.size(), 20), ' ');
        os << "  " << flag << " " << o.help << "\n";
    }
}

int
flushStdout(const std::string &prefix, int rc)
{
    std::cout.flush();
    if (std::cout && std::fflush(stdout) == 0 && !std::ferror(stdout))
        return rc;
    std::cerr << prefix << ": cannot write stdout\n";
    return 1;
}

OutputFile::OutputFile(const std::string &path) : path_(path), tmp_(path)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::file_status st = fs::status(path, ec);
    if (!fs::exists(st) || fs::is_regular_file(st))
        tmp_ += ".tmp";
    out_.open(tmp_, std::ios::binary | std::ios::trunc);
    if (!out_)
        throw std::runtime_error("cannot open " + path);
}

OutputFile::~OutputFile()
{
    if (!committed_ && tmp_ != path_) {
        out_.close();
        std::remove(tmp_.c_str());
    }
}

void
OutputFile::commit()
{
    out_.close();
    if (!out_ ||
        (tmp_ != path_ && std::rename(tmp_.c_str(), path_.c_str()) != 0))
        throw std::runtime_error("cannot write " + path_);
    committed_ = true;
}

} // namespace mop::sim
