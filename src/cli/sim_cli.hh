/**
 * @file
 * The `leaftl_sim` comparison driver: one reproducible entry point
 * that composes Runner, Ssd, the three FTLs, and any workload source,
 * sweeps gamma, queue depth, device preset, replay mode, and offered
 * load, and emits one CSV row per (ftl, workload, gamma, qd, device,
 * mode, rate) combination. The paper's figures (and future scaling
 * experiments) are sweeps over exactly this cross product.
 * Combinations are independent, so the sweep fans out over a small
 * thread pool (--jobs); rows are always emitted in combination order,
 * making the CSV byte-identical for any job count.
 *
 * Command-line flags, `--config FILE` (a declarative experiment
 * config, see config/config_file.hh), and `--set key=value`
 * overrides all lower into the same config::ExperimentSpec before
 * any run is constructed; `--campaign FILE` hands the spec to the
 * fingerprinted campaign runner (cli/campaign.hh) instead of the
 * inline sweep.
 *
 * Kept as a library (main() lives in main.cc) so tests can drive the
 * parser and the sweep without spawning a process.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "config/experiment.hh"
#include "sim/metrics.hh"
#include "ssd/config.hh"
#include "workload/request.hh"

namespace leaftl
{
namespace cli
{

/**
 * Parsed command line of leaftl_sim: the declarative experiment
 * (sweep axes + run scalars, see config::ExperimentSpec for every
 * field) plus the host-side knobs that never affect results.
 */
struct SimOptions : config::ExperimentSpec
{
    /** Output CSV path; empty = stdout. */
    std::string output;

    /** --campaign FILE: run the fingerprinted campaign runner. */
    std::string campaign;

    /** --campaign-dir DIR: override the campaign output directory. */
    std::string campaign_dir;

    /** --campaign-diff A B: compare two BENCH_<name>.json summaries. */
    std::string diff_a;
    std::string diff_b;

    /**
     * --diff-threshold PCT: --campaign-diff exits 1 when any shared
     * run regresses by more than this percentage on throughput or
     * improves p99 read latency's inverse (i.e. p99 grows) beyond it.
     * <= 0 disables the regression gate (report only).
     */
    double diff_threshold = 0.0;

    /**
     * --set KEY=VALUE overrides in flag order. Already applied to
     * this spec; kept raw so --campaign can replay them on top of
     * the campaign file's spec.
     */
    std::vector<std::pair<std::string, std::string>> set_overrides;

    bool list = false; ///< --list: print known workloads and exit.
    bool help = false; ///< --help/-h.
};

/**
 * Parse argv into @a opts. Flags are applied in order, so a flag
 * after --config overrides the file's value and --set overrides
 * both.
 * @return true on success; on failure @a err describes the problem.
 */
bool parseArgs(int argc, const char *const *argv, SimOptions &opts,
               std::string &err);

/** Usage text (multi-line, ends with a newline). */
std::string usage();

/** Known workload specs (for --list and error messages). */
std::vector<std::string> knownWorkloads();

/** Known --mode tokens, in presentation order. */
inline std::vector<std::string>
knownModes()
{
    return config::knownModes();
}

/** Whether @a mode consumes the --rate axis (fixed/poisson/burst). */
inline bool
modeUsesRate(const std::string &mode)
{
    return config::modeUsesRate(mode);
}

/**
 * Parsed trace files keyed by workload spec. A sweep parses each
 * trace once (serially, while validating specs) and every run then
 * shares the immutable request vector, so the cache needs no locking.
 */
using TraceCache =
    std::map<std::string,
             std::shared_ptr<const std::vector<IoRequest>>>;

/**
 * Build the workload source named by @a spec.
 * @param trace_cache Optional cache for trace/fiu specs: a hit skips
 *        the parse, a miss parses and inserts. nullptr = no caching.
 * @return nullptr (with @a err set) for an unknown spec or an
 *         unreadable trace file.
 */
std::unique_ptr<WorkloadSource>
makeWorkload(const std::string &spec, const config::ExperimentSpec &opts,
             std::string &err, TraceCache *trace_cache = nullptr);

/**
 * Device config for one run of the sweep. @a device is "auto"
 * (geometry derived from the working set, scaled paper Table 1) or a
 * preset name; the spec's dram_bytes overrides either's DRAM budget.
 */
SsdConfig makeConfig(FtlKind ftl, uint32_t gamma,
                     const config::ExperimentSpec &opts,
                     const std::string &device = "auto");

/** CSV column header row (no trailing newline). */
std::string csvHeader();

/** One CSV data row for a finished run (no trailing newline). */
std::string csvRow(const RunResult &res, FtlKind ftl, uint32_t gamma,
                   const SsdConfig &cfg, const std::string &device = "auto");

/**
 * Worker threads for @a tasks independent runs under --jobs
 * @a jobs: 0 means hardware concurrency; either way the count is
 * capped at the task count (and is at least 1). Each run is
 * single-threaded, so this is the only parallelism.
 */
unsigned sweepWorkers(unsigned jobs, size_t tasks);

/**
 * Run the whole sweep on sweepWorkers(opts.jobs) worker threads and
 * write the CSV to @a out (header first, then one row per
 * combination, in combination order regardless of job count).
 * @return process exit code (0 = every combination ran).
 */
int runSweep(const config::ExperimentSpec &opts, std::ostream &out);

/** Full CLI: parse, dispatch --help/--list/--campaign, sweep. */
int simMain(int argc, const char *const *argv);

} // namespace cli
} // namespace leaftl
