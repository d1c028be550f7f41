#include "sweep/perf_track.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

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

/** Pull `"key": <value>` out of one entry line. */
bool
field(const std::string &line, const std::string &key, std::string &out)
{
    std::string needle = "\"" + key + "\": ";
    size_t p = line.find(needle);
    if (p == std::string::npos)
        return false;
    p += needle.size();
    size_t end = p;
    if (line[p] == '"') {
        end = line.find('"', ++p);
        if (end == std::string::npos)
            return false;
    } else {
        while (end < line.size() && line[end] != ',' && line[end] != '}')
            ++end;
    }
    out = line.substr(p, end - p);
    return true;
}

PerfEntry
parseEntryLine(const std::string &line)
{
    PerfEntry e;
    std::string v;
    if (field(line, "label", v))
        e.label = v;
    if (field(line, "sim_version", v))
        e.simVersion = v;
    if (field(line, "jobs", v))
        e.jobs = std::atoi(v.c_str());
    if (field(line, "insts_per_run", v))
        e.instsPerRun = std::strtoull(v.c_str(), nullptr, 10);
    if (field(line, "repeats", v))
        e.repeats = std::atoi(v.c_str());
    if (field(line, "ips_median", v))
        e.ipsMedian = std::strtod(v.c_str(), nullptr);
    if (field(line, "ips_min", v))
        e.ipsMin = std::strtod(v.c_str(), nullptr);
    if (field(line, "ips_max", v))
        e.ipsMax = std::strtod(v.c_str(), nullptr);
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
            if (line.find("\"label\"") != std::string::npos)
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

bool
readLastPerfEntry(const std::string &path, PerfEntry &e)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line, last;
    while (std::getline(in, line))
        if (line.find("\"label\"") != std::string::npos)
            last = line;
    if (last.empty())
        return false;
    e = parseEntryLine(last);
    return true;
}

std::vector<PerfEntry>
readPerfEntries(const std::string &path)
{
    std::vector<PerfEntry> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (line.find("\"label\"") != std::string::npos)
            out.push_back(parseEntryLine(line));
    return out;
}

bool
gatePerf(const std::string &baseline_path, double measured_median,
         double tolerance_pct, std::string &message)
{
    PerfEntry pinned;
    if (!readLastPerfEntry(baseline_path, pinned)) {
        message = "perf gate: no baseline at " + baseline_path +
                  " (first run pins it)";
        return true;
    }
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
