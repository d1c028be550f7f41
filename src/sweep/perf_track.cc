#include "sweep/perf_track.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "sim/cli_opts.hh"

namespace mop::sweep
{

namespace
{

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream ss;
    ss.precision(17);
    ss << v;
    return ss.str();
}

std::string
escape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (uint8_t(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
entryLine(const PerfEntry &e)
{
    std::ostringstream os;
    os << "    {\"label\": \"" << escape(e.label) << "\", \"sim_version\": \""
       << escape(e.simVersion) << "\", \"jobs\": " << e.jobs
       << ", \"insts_per_run\": " << e.instsPerRun
       << ", \"repeats\": " << e.repeats
       << ", \"ips_median\": " << num(e.ipsMedian)
       << ", \"ips_min\": " << num(e.ipsMin)
       << ", \"ips_max\": " << num(e.ipsMax) << "}";
    return os.str();
}

/** An entry line: the first non-blank character opens an object (the
 *  header's lone "{" does not count). */
bool
isEntryLine(const std::string &line)
{
    const size_t p = line.find_first_not_of(' ');
    return p != std::string::npos && line[p] == '{' && p + 1 < line.size();
}

/**
 * One entry line as entryLine writes it: an object of "key": value
 * pairs, then at most a comma. Strings are quoted, numbers plain,
 * in range and finite, and every field is present; @p where (path and
 * line) names the fault. Keys this reader does not know are skipped.
 * @throws std::invalid_argument
 */
PerfEntry
parseEntryLine(const std::string &line, const std::string &where)
{
    auto fail = [&where](const std::string &why) {
        throw std::invalid_argument(where + ": " + why);
    };
    size_t i = 0;
    auto eat = [&](char c) {
        while (i < line.size() && line[i] == ' ')
            ++i;
        if (i == line.size() || line[i] != c)
            return false;
        ++i;
        return true;
    };
    // A quoted string, unescaped but kept in its quotes so that a
    // number can tell it is not one; i is past the opening quote.
    auto quoted = [&] {
        std::string s = "\"";
        for (; i < line.size() && line[i] != '"'; ++i) {
            if (line[i] == '\\' && i + 1 < line.size())
                ++i;
            s += line[i];
        }
        if (!eat('"'))
            fail("unterminated string");
        return s + '"';
    };
    std::map<std::string, std::string> raw;  // key -> value as written
    if (!eat('{'))
        fail("an entry is one {...} object");
    do {
        if (!eat('"'))
            fail("expected a quoted key");
        std::string key = quoted();
        key = key.substr(1, key.size() - 2);
        if (!eat(':'))
            fail("expected ':' after \"" + key + "\"");
        std::string value;
        if (eat('"')) {
            value = quoted();
        } else {
            const size_t end = std::min(line.find_first_of(",}", i),
                                        line.size());
            value = line.substr(i, end - i);
            while (!value.empty() && value.back() == ' ')
                value.pop_back();
            i = end;
        }
        if (!raw.emplace(key, value).second)
            fail("\"" + key + "\" appears twice");
    } while (eat(','));
    if (!eat('}'))
        fail("expected ',' or '}'");
    eat(',');
    if (line.find_first_not_of(' ', i) != std::string::npos)
        fail("trailing text after the entry");

    auto get = [&](const std::string &key) {
        auto it = raw.find(key);
        if (it == raw.end())
            fail("no \"" + key + "\"");
        return it->second;
    };
    auto text = [&](const std::string &key) {
        const std::string v = get(key);
        if (v.size() < 2 || v.front() != '"')
            fail("\"" + key + "\" is not a string");
        return v.substr(1, v.size() - 2);
    };
    auto count = [&](const std::string &key, uint64_t lo, uint64_t hi) {
        return sim::parseUintOption(where + " " + key, get(key), lo, hi);
    };
    auto rate = [&](const std::string &key) {
        return sim::parseDecimalOption(where + " " + key, get(key), 0, 1e12);
    };
    PerfEntry e;
    e.label = text("label");
    e.simVersion = text("sim_version");
    const int most = std::numeric_limits<int>::max();
    e.jobs = int(count("jobs", 1, most));
    e.instsPerRun = count("insts_per_run", 1, sim::kMaxInsts);
    e.repeats = int(count("repeats", 1, most));
    e.ipsMedian = rate("ips_median");
    e.ipsMin = rate("ips_min");
    e.ipsMax = rate("ips_max");
    return e;
}

} // namespace

double
medianOf(std::vector<double> samples)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

void
appendPerfEntry(const std::string &path, const PerfEntry &e)
{
    // Collect existing entry lines (everything between the brackets),
    // then rewrite header + old entries + the new one. Entries are
    // never parsed beyond line granularity, so pinning preserves the
    // history byte-for-byte.
    std::vector<std::string> entries;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            if (isEntryLine(line))
                entries.push_back(line.back() == ','
                                      ? line.substr(0, line.size() - 1)
                                      : line);
    }
    entries.push_back(entryLine(e));

    sim::OutputFile file(path);
    std::ostream &out = file.stream();
    out << "{\n  \"schema\": \"mop-core-perf-1\",\n  \"entries\": [\n";
    for (size_t i = 0; i < entries.size(); ++i)
        out << entries[i] << (i + 1 < entries.size() ? "," : "") << "\n";
    out << "  ]\n}\n";
    file.commit();
}

std::vector<PerfEntry>
readPerfEntries(const std::string &path)
{
    std::vector<PerfEntry> out;
    std::ifstream in(path);
    std::string line;
    for (int n = 1; std::getline(in, line); ++n)
        if (isEntryLine(line))
            out.push_back(parseEntryLine(line, path + ":" + std::to_string(n)));
    return out;
}

bool
gatePerf(const std::string &baseline_path, double measured_median,
         double tolerance_pct, std::string &message)
{
    const std::vector<PerfEntry> entries = readPerfEntries(baseline_path);
    if (entries.empty()) {
        message = "perf gate: no baseline at " + baseline_path +
                  " (first run pins it)";
        return true;
    }
    const PerfEntry &pinned = entries.back();
    double floor = pinned.ipsMedian * (1.0 - tolerance_pct / 100.0);
    std::ostringstream os;
    os.precision(0);
    os << std::fixed << "perf gate: measured " << measured_median
       << " insts/s vs pinned " << pinned.ipsMedian << " (\""
       << pinned.label << "\", floor " << floor << " at "
       << tolerance_pct << "% tolerance): "
       << (measured_median >= floor ? "PASS" : "FAIL");
    message = os.str();
    return measured_median >= floor;
}

} // namespace mop::sweep
