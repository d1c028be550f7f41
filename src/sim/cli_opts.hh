/**
 * @file
 * Validated command-line numeric parsing.
 *
 * std::stoi-style parsing silently accepts trailing garbage ("32x"),
 * leading blanks and a '+', ignores range expectations and turns typos
 * into undefined simulator behaviour. These helpers parse the *entire*
 * token, which must start with a digit (or a '-' where negatives are
 * possible), enforce a closed range, and throw std::invalid_argument
 * with a message naming the option, the offending value and the
 * accepted range.
 */

#ifndef MOP_SIM_CLI_OPTS_HH
#define MOP_SIM_CLI_OPTS_HH

#include <cstdint>
#include <string>

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

} // namespace mop::sim

#endif // MOP_SIM_CLI_OPTS_HH
