/**
 * @file
 * The training list of the profile-guided Release build
 * (src/profile/training.txt) is checked by every build type: each row
 * runs, at a 2000-inst budget, through the entry of the tool it names,
 * and no row simulates gzip or mcf, the workloads the benchmark
 * measures. A retired option or a forbidden workload in the list fails
 * here, not in the next Release build.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/render.hh"
#include "sim/config.hh"
#include "tool_test.hh"

namespace
{

using namespace mop;

/** The list's rows: its lines that are neither blank nor comments. */
std::vector<std::string>
trainingRows()
{
    std::ifstream in(MOP_SOURCE_DIR "/src/profile/training.txt");
    EXPECT_TRUE(in) << "cannot read the training list";
    std::vector<std::string> rows;
    for (std::string line; std::getline(in, line);)
        if (!line.empty() && line[0] != '#')
            rows.push_back(line);
    return rows;
}

TEST(TrainingList, EveryRowRunsAndNoneSimulatesGzipOrMcf)
{
    const std::vector<std::string> rows = trainingRows();
    ASSERT_FALSE(rows.empty());
    // The rows run in order in one directory, as the training runs
    // them: the moptrace rows read the trace a mopsim row wrote.
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(testing::TempDir()) / "mop-training";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const fs::path cwd = fs::current_path();
    fs::current_path(dir);
    for (const std::string &row : rows) {
        // train.cmake splits a row as a shell would; rows of plain
        // words split the same way here.
        EXPECT_EQ(row.find_first_of("\"'\\"), std::string::npos) << row;
        std::istringstream words(row);
        std::vector<std::string> args;
        for (std::string w; words >> w;)
            args.push_back(w);
        const bool mopsim = !args.empty() && args[0] == "mopsim";
        if (!mopsim && (args.empty() || args[0] != "moptrace")) {
            ADD_FAILURE() << row << ": not a mopsim or moptrace command";
            continue;
        }
        bool shrunk = false;
        for (size_t i = 1; i < args.size(); ++i) {
            std::string &a = args[i];
            if (a == "--bench" || a.starts_with("--bench=")) {
                const std::string bench =
                    a.size() > 7 ? a.substr(8)
                                 : (i + 1 < args.size() ? args[i + 1] : "");
                EXPECT_TRUE(bench != "gzip" && bench != "mcf") << row;
            }
            if (a == "--insts" && i + 1 < args.size()) {
                args[i + 1] = "2000";
                shrunk = true;
            } else if (a.starts_with("--insts=")) {
                a = "--insts=2000";
                shrunk = true;
            }
        }
        EXPECT_TRUE(shrunk || !mopsim) << row << ": no --insts to shrink";
        const test::Outcome o = test::runEntry(
            mopsim ? sim::mopsimMain : obs::moptraceMain, args);
        EXPECT_EQ(o.rc, 0) << row << "\n" << o.err;
    }
    fs::current_path(cwd);
    fs::remove_all(dir);
}

} // namespace
