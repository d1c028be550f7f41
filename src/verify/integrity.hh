/**
 * @file
 * Always-on integrity checking for the timing simulator.
 *
 * Unlike assert(), these checks survive release builds: a violated
 * invariant raises IntegrityError with the check's name and a
 * diagnostic message, and bumps a per-check violation counter that is
 * reported through the stats package. They run on cold paths (commit,
 * structural audits, error handling), so keeping them on costs nothing
 * measurable while guaranteeing that a corrupted simulation can never
 * silently publish a wrong number.
 */

#ifndef MOP_VERIFY_INTEGRITY_HH
#define MOP_VERIFY_INTEGRITY_HH

#include <array>
#include <stdexcept>
#include <string>
#include <utility>

#include "stats/stats.hh"

namespace mop::verify
{

/** Thrown on any violated simulation invariant. */
class IntegrityError : public std::runtime_error
{
  public:
    IntegrityError(std::string check, const std::string &msg)
        : std::runtime_error("integrity violation [" + check + "]: " + msg),
          check_(std::move(check))
    {
    }

    /** Name of the violated check (e.g. "iq-accounting"). */
    const std::string &check() const { return check_; }

  private:
    std::string check_;
};

class IntegrityChecker
{
  public:
    enum class Check : uint8_t
    {
        RobOrder,      ///< ROB commits in dynamic-id order, completed
        IqAccounting,  ///< issue-queue entry leak / occupancy accounting
        TagLiveness,   ///< outstanding wakeup broadcasts stay coherent
        MopPairing,    ///< MOP head/tail pairing inside IQ entries
        Dataflow,      ///< execution never precedes a true producer
        StallAccounting,  ///< every issue slot charged to one cause
        kCount,
    };

    static const char *checkName(Check c);

    /** Record a violation of @p c and throw IntegrityError. */
    [[noreturn]] void fail(Check c, const std::string &msg);

    /** Like fail(), but only when @p ok is false. */
    void
    require(bool ok, Check c, const std::string &msg)
    {
        if (!ok)
            fail(c, msg);
    }

    /** Literal-message form: a string literal would otherwise convert
     *  to the std::string overload's argument on every call, pass or
     *  fail; here the string is built only on failure. */
    void
    require(bool ok, Check c, const char *msg)
    {
        if (!ok) [[unlikely]]
            fail(c, msg);
    }

    /**
     * Hot-path variant: the diagnostic is a callable returning the
     * message, invoked only on failure. Checks sitting on per-commit
     * or per-event paths must use this form — eager std::to_string
     * message assembly for checks that always pass showed up as ~10%
     * of simulator runtime before the message became lazy.
     */
    template <typename MsgFn,
              typename = decltype(std::declval<MsgFn &>()())>
    void
    require(bool ok, Check c, MsgFn &&msg_fn)
    {
        if (!ok) [[unlikely]]
            fail(c, std::string(msg_fn()));
    }

    uint64_t violations(Check c) const { return violations_[size_t(c)]; }
    uint64_t totalViolations() const;

    /** Register one violation counter per check under @p prefix. */
    void addStats(stats::StatGroup &g, const std::string &prefix) const;

  private:
    std::array<uint64_t, size_t(Check::kCount)> violations_{};
};

} // namespace mop::verify

#endif // MOP_VERIFY_INTEGRITY_HH
