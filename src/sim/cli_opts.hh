/**
 * @file
 * Command-line parsing shared by mopsim, mopsuite and moptrace.
 *
 * The parse*Option helpers take the *entire* token (no trailing
 * garbage, leading blank or '+', all of which strtol accepts), enforce
 * a closed range, and throw std::invalid_argument naming the option,
 * the value and the range.
 *
 * Each tool's command line is one table of Opt rows, which parseArgs
 * reads argv against and printUsage prints --help from. An
 * OutputFile writes a file such an option names, and flushStdout
 * checks what went to standard output.
 */

#ifndef MOP_SIM_CLI_OPTS_HH
#define MOP_SIM_CLI_OPTS_HH

#include <cstdint>
#include <fstream>
#include <functional>
#include <iosfwd>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace mop::sim
{

/** Parse @p value as a decimal integer in [lo, hi] for option @p opt. */
int64_t parseIntOption(const std::string &opt, const std::string &value,
                       int64_t lo, int64_t hi);

/** Unsigned variant (for large counts like --insts and --seed). */
uint64_t parseUintOption(const std::string &opt, const std::string &value,
                         uint64_t lo, uint64_t hi);

/** Parse @p value as a plain decimal ("0.1", "5", "-2.5"; no blanks,
 *  exponent, "nan" or "inf") in [lo, hi] for option @p opt. */
double parseDecimalOption(const std::string &opt, const std::string &value,
                          double lo, double hi);

/** mopsim's and mopsuite's --insts and $MOP_INSTS take [1, kMaxInsts]. */
inline constexpr uint64_t kMaxInsts = uint64_t(1) << 40;

/** One row of a tool's option table: a text row is {flag, metavar,
 *  help, setter}, the others come from the *Opt helpers. */
struct Opt
{
    std::string flag, metavar, help;
    std::function<void(const std::string &)> apply;  ///< checks, stores
    /** Runs whenever the flag is given; a row that has it takes no
     *  value, or (with apply) an optional one. */
    std::function<void()> bare{};
};

/** A setter that stores its (converted) value into @p field. */
template <class T>
auto
into(T &field)
{
    return [&field](const auto &v) { field = T(v); };
}

Opt switchOpt(std::string flag, std::string help, bool &field,
              bool value = true);
/** One of @p tokens, which @p parse looks up (false: not one of them). */
Opt tokenOpt(std::string flag, std::string metavar, std::string help,
             const std::vector<std::string> &tokens,
             std::function<bool(const std::string &)> parse);

/** A number in [lo, hi] read by @p parse (one of the parse*Option
 *  helpers); with @p bare the value is optional. */
template <class T>
Opt
numOpt(std::string flag, std::string metavar,
       T (*parse)(const std::string &, const std::string &, T, T),
       std::type_identity_t<T> lo, std::type_identity_t<T> hi,
       std::string help, std::type_identity_t<std::function<void(T)>> set,
       std::function<void()> bare = {})
{
    std::ostringstream range;
    range.precision(15);
    range << " [" << lo << ", " << hi << "]";
    return {flag, metavar, help + range.str(),
            [=](const std::string &v) { set(parse(flag, v, lo, hi)); }, bare};
}

/** Apply argv[1, argc) to @p table's rows in order: "--flag value" or
 *  "--flag=value" (an optional value only the latter), "-h" = "--help".
 *  Throws one std::invalid_argument naming an unknown flag, a stray
 *  argument, a missing value or a switch given one. */
void parseArgs(const std::vector<Opt> &table, int argc,
               const char *const *argv);

/** One line per row: its flag and value, then its help. */
void printUsage(std::ostream &os, const std::vector<Opt> &table);

/** @p rc once all a tool wrote to std::cout and stdout has reached
 *  standard output; otherwise one "@p prefix: cannot write stdout"
 *  line on stderr and 1. Each tool's entry returns through it, so a
 *  full disk under a redirected report is never a success. */
int flushStdout(const std::string &prefix, int rc);

/**
 * A file written whole or not at all: stream() writes a temp file
 * beside the target, and commit() renames it into place. A target
 * that exists and is not a regular file (/dev/null, a FIFO) is
 * written in place, since a rename would replace it.
 */
class OutputFile
{
  public:
    /** @throws std::runtime_error "cannot open PATH" when the file
     *  cannot be created. */
    explicit OutputFile(const std::string &path);
    /** Removes the temp file unless commit() succeeded. */
    ~OutputFile();

    OutputFile(const OutputFile &) = delete;
    OutputFile &operator=(const OutputFile &) = delete;

    std::ostream &stream() { return out_; }
    /** Close the stream and rename the bytes into place.
     *  @throws std::runtime_error "cannot write PATH" when a byte or
     *  the rename failed. */
    void commit();

  private:
    std::string path_, tmp_;
    std::ofstream out_;
    bool committed_ = false;
};

} // namespace mop::sim

#endif // MOP_SIM_CLI_OPTS_HH
