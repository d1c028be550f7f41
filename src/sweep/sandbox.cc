#include "sweep/sandbox.hh"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "sweep/result_cache.hh"

namespace mop::sweep
{

namespace
{

constexpr char kTagResult = 'R';
constexpr char kTagError = 'E';

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Append the raw bytes of an integer (the frame is host-local). */
template <typename T>
void
appendRaw(std::string &s, T v)
{
    s.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

template <typename T>
bool
readRaw(const std::string &s, size_t &pos, T &v)
{
    if (pos + sizeof(v) > s.size())
        return false;
    std::memcpy(&v, s.data() + pos, sizeof(v));
    pos += sizeof(v);
    return true;
}

void
writeAll(int fd, const char *data, size_t n)
{
    size_t off = 0;
    while (off < n) {
        ssize_t w = ::write(fd, data + off, n - off);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return;  // parent classifies the torn frame
        }
        off += size_t(w);
    }
}

/** The 'E' frame: an exception message, unchecksummed. */
std::string
errorFrame(const std::string &msg)
{
    std::string frame(1, kTagError);
    appendRaw(frame, uint32_t(msg.size()));
    return frame + msg;
}

/** Child body: never returns. */
[[noreturn]] void
childMain(int fd, const SweepJob &job, const Fingerprint &fp,
          const SweepFaultPlan *plan, int attempt)
{
    if (plan) {
        if (plan->fires(SweepFault::Crash, fp, attempt)) {
            // Die by real signal even under sanitizers that intercept
            // SIGSEGV (ASan would otherwise turn this into exit(1)).
            std::signal(SIGSEGV, SIG_DFL);
            ::raise(SIGSEGV);
            ::_exit(42);  // unreachable fallback
        }
        if (plan->fires(SweepFault::Hang, fp, attempt)) {
            for (;;)
                ::pause();  // watchdog SIGKILLs us
        }
    }

    std::string frame;
    try {
        // 'R' payload: seconds (IEEE-754 bits), instruction count, then
        // the record exactly as the cache stores it.
        SweepOutcome out = computeJob(job);
        uint64_t secBits;
        std::memcpy(&secBits, &out.seconds, sizeof(secBits));
        std::string payload;
        appendRaw(payload, secBits);
        appendRaw(payload, out.simulatedInsts);
        payload += encodeRecordV2(out.record);
        uint32_t crc = crc32c(payload.data(), payload.size());
        frame.push_back(kTagResult);
        appendRaw(frame, uint32_t(payload.size()));
        frame += payload;
        appendRaw(frame, crc);
        if (plan && plan->fires(SweepFault::CorruptRecord, fp, attempt) &&
            !payload.empty()) {
            // Flip a payload bit *after* the CRC was computed: the
            // parent must detect the damage, never consume it.
            size_t victim = 1 + sizeof(uint32_t) +
                            size_t(splitmix64(plan->seed ^ fp.lo) %
                                   payload.size());
            frame[victim] = char(frame[victim] ^ 0x10);
        }
        if (plan && plan->fires(SweepFault::ShortWrite, fp, attempt))
            frame.resize(frame.size() / 2);
    } catch (const std::exception &e) {
        frame = errorFrame(e.what());
    } catch (...) {
        frame = errorFrame("unknown exception");
    }
    writeAll(fd, frame.data(), frame.size());
    ::_exit(0);
}

/** Parse a complete frame; false on any truncation/CRC damage. */
bool
parseFrame(const std::string &buf, WorkerResult &res)
{
    if (buf.empty())
        return false;
    size_t pos = 1;
    uint32_t len = 0;
    if (!readRaw(buf, pos, len))
        return false;
    if (buf[0] == kTagError) {
        if (pos + len != buf.size())
            return false;
        res.status = WorkerStatus::Error;
        res.error = buf.substr(pos, len);
        return true;
    }
    if (buf[0] != kTagResult)
        return false;
    if (pos + len + sizeof(uint32_t) != buf.size())
        return false;
    const std::string payload = buf.substr(pos, len);
    pos += len;
    uint32_t storedCrc = 0;
    readRaw(buf, pos, storedCrc);
    if (crc32c(payload.data(), payload.size()) != storedCrc)
        return false;
    pos = 0;
    uint64_t secBits = 0;
    if (!readRaw(payload, pos, secBits) ||
        !readRaw(payload, pos, res.outcome.simulatedInsts) ||
        decodeRecord(payload.substr(pos), res.outcome.record) !=
            RecordStatus::Ok)
        return false;
    std::memcpy(&res.outcome.seconds, &secBits, sizeof(secBits));
    res.status = WorkerStatus::Ok;
    return true;
}

} // namespace

const char *
sweepFaultName(SweepFault k)
{
    switch (k) {
      case SweepFault::Crash: return "crash";
      case SweepFault::Hang: return "hang";
      case SweepFault::CorruptRecord: return "corrupt-record";
      case SweepFault::ShortWrite: return "short-write";
      case SweepFault::kCount: break;
    }
    return "?";
}

const char *
workerStatusName(WorkerStatus s)
{
    switch (s) {
      case WorkerStatus::Ok: return "ok";
      case WorkerStatus::Crash: return "crash";
      case WorkerStatus::Timeout: return "timeout";
      case WorkerStatus::CorruptResult: return "corrupt-result";
      case WorkerStatus::Error: return "error";
    }
    return "?";
}

bool
SweepFaultPlan::any() const
{
    for (const Rule &r : rules)
        if (r.rate > 0)
            return true;
    return false;
}

SweepFaultPlan
SweepFaultPlan::parse(const std::string &spec, uint64_t seed)
{
    SweepFaultPlan plan;
    plan.seed = seed;
    std::stringstream ss(spec);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
        if (tok.empty())
            continue;
        std::string kindName = tok;
        double rate = 1.0;
        int attempts = 1;
        size_t c1 = tok.find(':');
        if (c1 != std::string::npos) {
            kindName = tok.substr(0, c1);
            std::string rest = tok.substr(c1 + 1);
            size_t c2 = rest.find(':');
            std::string rateStr =
                c2 == std::string::npos ? rest : rest.substr(0, c2);
            try {
                size_t used = 0;
                rate = std::stod(rateStr, &used);
                if (used != rateStr.size())
                    throw std::invalid_argument(rateStr);
            } catch (...) {
                throw std::invalid_argument(
                    "--sweep-inject: bad rate in '" + tok + "'");
            }
            if (c2 != std::string::npos) {
                std::string attStr = rest.substr(c2 + 1);
                try {
                    size_t used = 0;
                    attempts = std::stoi(attStr, &used);
                    if (used != attStr.size())
                        throw std::invalid_argument(attStr);
                } catch (...) {
                    throw std::invalid_argument(
                        "--sweep-inject: bad attempt count in '" + tok +
                        "'");
                }
            }
        }
        SweepFault kind = SweepFault::kCount;
        for (size_t k = 0; k < kNumSweepFaults; ++k)
            if (kindName == sweepFaultName(SweepFault(k)))
                kind = SweepFault(k);
        if (kind == SweepFault::kCount)
            throw std::invalid_argument(
                "--sweep-inject: unknown fault kind '" + kindName + "'");
        if (!(rate > 0.0) || rate > 1.0)
            throw std::invalid_argument(
                "--sweep-inject: rate must be in (0, 1] in '" + tok +
                "'");
        if (attempts < 1 || attempts > 1000000)
            throw std::invalid_argument(
                "--sweep-inject: attempts must be in [1, 1e6] in '" +
                tok + "'");
        plan.rules[size_t(kind)] = {rate, attempts};
    }
    if (!plan.any())
        throw std::invalid_argument("--sweep-inject: empty fault spec");
    return plan;
}

std::string
SweepFaultPlan::toString() const
{
    std::ostringstream os;
    bool first = true;
    for (size_t k = 0; k < kNumSweepFaults; ++k) {
        const Rule &r = rules[k];
        if (r.rate <= 0)
            continue;
        char buf[64];
        std::snprintf(buf, sizeof buf, "%s:%g:%d",
                      sweepFaultName(SweepFault(k)), r.rate,
                      r.failAttempts);
        os << (first ? "" : ",") << buf;
        first = false;
    }
    return os.str();
}

bool
SweepFaultPlan::fires(SweepFault k, const Fingerprint &fp,
                      int attempt) const
{
    const Rule &r = rules[size_t(k)];
    if (r.rate <= 0 || attempt > r.failAttempts)
        return false;
    // Victim selection is a deterministic function of (seed, kind,
    // job): execution order and retry timing can never change who is
    // hit, which is what makes chaos runs replayable.
    uint64_t x = splitmix64(seed ^ (uint64_t(k) + 1) * 0x9e3779b97f4a7c15ULL ^
                            splitmix64(fp.hi) ^ fp.lo);
    double u = double(x >> 11) * 0x1.0p-53;
    return u < r.rate;
}

WorkerResult
runIsolated(const SweepJob &job, const Fingerprint &fp,
            double timeout_seconds, const SweepFaultPlan *plan,
            int attempt)
{
    WorkerResult res;
    if (timeout_seconds < 0.01)
        timeout_seconds = 0.01;

    int fds[2];
    if (::pipe(fds) != 0) {
        res.status = WorkerStatus::Error;
        res.error = std::string("pipe: ") + std::strerror(errno);
        return res;
    }

    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        res.status = WorkerStatus::Error;
        res.error = std::string("fork: ") + std::strerror(errno);
        return res;
    }
    if (pid == 0) {
        ::close(fds[0]);
        childMain(fds[1], job, fp, plan, attempt);
    }
    ::close(fds[1]);

    // Drain the pipe under the deadline; EOF means the child is gone
    // (its only descriptor closes on exit).
    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(timeout_seconds);
    std::string buf;
    bool timedOut = false;
    for (;;) {
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now());
        if (left.count() <= 0) {
            timedOut = true;
            break;
        }
        struct pollfd pfd = {fds[0], POLLIN, 0};
        int pr = ::poll(&pfd, 1, int(left.count()) + 1);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            timedOut = true;  // treat a broken watchdog as a deadline
            break;
        }
        if (pr == 0) {
            timedOut = true;
            break;
        }
        char chunk[4096];
        ssize_t n = ::read(fds[0], chunk, sizeof chunk);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0)
            break;  // EOF
        buf.append(chunk, size_t(n));
    }
    ::close(fds[0]);

    int status = 0;
    if (timedOut) {
        ::kill(pid, SIGKILL);
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        res.status = WorkerStatus::Timeout;
        return res;
    }
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }

    if (WIFSIGNALED(status)) {
        res.status = WorkerStatus::Crash;
        res.signal = WTERMSIG(status);
        return res;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        res.status = WorkerStatus::Crash;
        res.signal = 0;
        res.error = "child exited with status " +
                    std::to_string(WIFEXITED(status)
                                       ? WEXITSTATUS(status)
                                       : -1);
        return res;
    }
    if (!parseFrame(buf, res)) {
        res.status = WorkerStatus::CorruptResult;
        res.error = "result frame truncated or CRC-damaged (" +
                    std::to_string(buf.size()) + " bytes)";
    }
    return res;
}

} // namespace mop::sweep
