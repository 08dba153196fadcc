/**
 * @file
 * The refactor-freeze tests: the CSV a flags-only invocation emits is
 * frozen (modulo the trailing wall_ns column) against a golden file
 * captured before the config subsystem landed, and an equivalent
 * --config file (or --set override) must reproduce the same rows.
 * If one of these fails, the config lowering changed simulation
 * behavior — not just plumbing.
 *
 * A second golden file, golden_compact.csv, freezes every column but
 * wall_ns of a LeaFTL sweep long enough that each row's learned table
 * compacts several times, so changes to the compaction path (§3.7)
 * are pinned end to end, not only against the reference group.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/sim_cli.hh"
#include "csv_test_util.hh"
#include "sim/runner.hh"
#include "ssd/ssd.hh"

namespace leaftl
{
namespace cli
{
namespace
{

using test::columnPrefix;
using test::stripWallNs;

/**
 * Columns the golden file freezes: everything up to (excluding) the
 * recovery columns appended after it was captured. wall_ns never
 * appears in the golden file either (host time, stripped at capture).
 */
constexpr int kGoldenColumns = 32;

/** Parse @a args (after argv[0]) into SimOptions, asserting success. */
SimOptions
parse(const std::vector<const char *> &args)
{
    std::vector<const char *> argv = {"leaftl_sim"};
    argv.insert(argv.end(), args.begin(), args.end());
    SimOptions opts;
    std::string err;
    EXPECT_TRUE(
        parseArgs(static_cast<int>(argv.size()), argv.data(), opts, err))
        << err;
    return opts;
}

/** Run the sweep for @a opts and return the CSV without wall_ns. */
std::string
sweepCsv(const SimOptions &opts)
{
    std::ostringstream out;
    EXPECT_EQ(runSweep(opts, out), 0);
    return stripWallNs(out.str());
}

/** Contents of a checked-in file under tests/data/. */
std::string
readGolden(const std::string &name)
{
    std::ifstream in(std::string(LEAFTL_SOURCE_DIR "/tests/data/") + name);
    EXPECT_TRUE(in.good()) << "missing checked-in " << name;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** A config file written to a unique temp path, removed on scope exit. */
class TempConfig
{
  public:
    explicit TempConfig(const std::string &text)
    {
        char name[] = "/tmp/leaftl_frozen_conf_XXXXXX";
        const int fd = mkstemp(name);
        EXPECT_GE(fd, 0);
        path_ = name;
        const ssize_t n = write(fd, text.data(), text.size());
        EXPECT_EQ(static_cast<size_t>(n), text.size());
        close(fd);
    }
    ~TempConfig() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(FrozenCsv, FlagsOnlySweepMatchesTheGoldenFile)
{
    // The exact invocation tests/data/golden_sweep.csv was captured
    // with (wall_ns stripped) before flags lowered through
    // config::ExperimentSpec. Byte-identity of the frozen column
    // prefix is the refactor's acceptance bar; columns appended since
    // (the recovery group) are outside the freeze.
    const SimOptions opts = parse(
        {"--ftl", "leaftl,dftl", "--workload", "synthetic:seq,synthetic:zipf",
         "--gamma", "0,4", "--qd", "1,4", "--device", "auto,tiny",
         "--mode", "closed,poisson", "--rate", "20000",
         "--requests", "300", "--ws", "2048", "--prefill", "0.25",
         "--seed", "42", "--jobs", "4"});

    EXPECT_EQ(columnPrefix(sweepCsv(opts), kGoldenColumns),
              readGolden("golden_sweep.csv"));
}

TEST(FrozenCsv, CompactingSweepMatchesTheGoldenFile)
{
    // The invocation tests/data/golden_compact.csv was captured with
    // (wall_ns stripped) before compaction's phase-1 shortcuts landed.
    const SimOptions opts = parse(
        {"--ftl", "leaftl", "--workload", "synthetic:rand,synthetic:zipf",
         "--gamma", "0,4,16", "--requests", "40000", "--ws", "4096",
         "--prefill", "0.85", "--seed", "42", "--jobs", "2"});
    const std::string golden = readGolden("golden_compact.csv");
    EXPECT_EQ(sweepCsv(opts), golden);

    // The golden only pins compaction if every row compacts: replay
    // each row the way the sweep does, check that it reproduces its
    // golden row, and count its compactions.
    std::istringstream rows(golden);
    std::string row;
    std::getline(rows, row); // Header.
    for (const std::string &spec : opts.workloads) {
        for (const uint32_t gamma : opts.gammas) {
            ASSERT_TRUE(std::getline(rows, row));
            std::string err;
            auto wl = makeWorkload(spec, opts, err);
            ASSERT_TRUE(wl) << err;
            const SsdConfig cfg = makeConfig(FtlKind::LeaFTL, gamma, opts);
            Ssd ssd(cfg);
            RunOptions ropts;
            ropts.prefill_pages = static_cast<uint64_t>(
                opts.prefill_frac * opts.working_set_pages);
            ropts.mixed_prefill = true;
            const RunResult res = Runner::replay(ssd, *wl, ropts);
            EXPECT_EQ(stripWallNs(csvRow(res, FtlKind::LeaFTL, gamma, cfg)),
                      row + "\n")
                << spec << " gamma " << gamma;
            EXPECT_GE(ssd.stats().compactions, 3u)
                << spec << " gamma " << gamma;
        }
    }
}

TEST(FrozenCsv, ConfigFileReproducesTheFlagRows)
{
    const SimOptions flags =
        parse({"--ftl", "leaftl,dftl", "--gamma", "0,4",
               "--workload", "synthetic:zipf", "--requests", "200",
               "--ws", "2048", "--prefill", "0.25", "--jobs", "2"});

    const TempConfig conf("[scale]\n"
                          "ws      = 2048\n"
                          "prefill = 0.25\n"
                          "[experiment]\n"
                          "inherit  = scale\n"
                          "ftl      = leaftl,dftl\n"
                          "gamma    = 0,4\n"
                          "workload = synthetic:zipf\n"
                          "requests = 200\n"
                          "jobs     = 2\n");
    const SimOptions from_config =
        parse({"--config", conf.path().c_str()});

    EXPECT_EQ(sweepCsv(from_config), sweepCsv(flags));
}

TEST(FrozenCsv, SetOverridesWinOverTheConfigFile)
{
    const TempConfig conf("[experiment]\n"
                          "ftl      = leaftl\n"
                          "gamma    = 0\n"
                          "workload = synthetic:zipf\n"
                          "requests = 100\n"
                          "ws       = 2048\n"
                          "prefill  = 0.25\n");
    const SimOptions overridden =
        parse({"--config", conf.path().c_str(), "--set", "gamma=4",
               "--set", "requests=200"});
    EXPECT_EQ(overridden.gammas, (std::vector<uint32_t>{4}));
    EXPECT_EQ(overridden.requests, 200u);

    const SimOptions direct =
        parse({"--ftl", "leaftl", "--gamma", "4", "--workload",
               "synthetic:zipf", "--requests", "200", "--ws", "2048",
               "--prefill", "0.25"});
    EXPECT_EQ(sweepCsv(overridden), sweepCsv(direct));
}

TEST(FrozenCsv, SetRequiresKeyEqualsValue)
{
    SimOptions opts;
    std::string err;
    {
        const char *argv[] = {"leaftl_sim", "--set", "gamma"};
        EXPECT_FALSE(parseArgs(3, argv, opts, err));
        EXPECT_NE(err.find("KEY=VALUE"), std::string::npos) << err;
    }
    {
        const char *argv[] = {"leaftl_sim", "--set", "gama=4"};
        EXPECT_FALSE(parseArgs(3, argv, opts, err));
        EXPECT_NE(err.find("did you mean 'gamma'?"), std::string::npos)
            << err;
    }
}

} // namespace
} // namespace cli
} // namespace leaftl
