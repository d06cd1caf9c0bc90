/**
 * @file
 * Aggregate the paper's two headline experiments into committed
 * JSON artifacts: BENCH_table4.json (base-vs-enhanced counters for
 * all four workloads) and BENCH_fig5.json (skip rate vs ABTB size).
 *
 * Usage:
 *   bench_to_json [--quick] [--out-dir DIR]
 *
 * The grids are the benches' own (bench/figures.hh), run on the
 * thread pool with the default job count: every `<w>.entries<N>`
 * run equals fig5_abtb_sweep's and every `<w>.base`/`<w>.enhanced`
 * run equals table4_microarch_counters' at the same --quick
 * setting. On top, each document carries the software-baseline
 * policy arms `<w>.stable` and `<w>.demand` through the same grids.
 *
 * The tool self-validates: it re-reads each written file, runs the
 * strict JSON validator over it, and checks that the required
 * per-structure counters and skip-rate gauges are present for every
 * workload. Any failure is a non-zero exit.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "figures.hh"
#include "stats/json_writer.hh"

using namespace dlsim;
using namespace dlsim::bench;

namespace
{

void
addRun(stats::MetricsDocument &doc, const std::string &name,
       const ArmResult &arm, RunContext context)
{
    auto &run = doc.addRun(name);
    run.context = std::move(context);
    run.registry = arm.registry;
}

// Alternative software baselines (§2 related work): the stable arm
// memoizes every resolution at dlopen (zero lazy traps), the demand
// arm demand-pages library memory (cold-start fault storm). Both run
// the enhanced machine so the columns isolate the loader policy.
constexpr linker::BindPolicy policies[] = {linker::BindPolicy::Stable,
                                           linker::BindPolicy::Demand};

/** Table 4's base/enhanced arms plus the policy arms. */
void
buildTable4(stats::MetricsDocument &doc, const BenchArgs &args)
{
    std::vector<workload::MachineConfig> machines = {
        baseMachine(), enhancedMachine()};
    for (const auto policy : policies) {
        machines.push_back(enhancedMachine());
        machines.back().bindPolicy = policy;
    }
    const auto arms = runTable4(args, machines);
    const char *names[] = {"base", "enhanced", "stable", "demand"};
    std::size_t a = 0;
    for (const GridWorkload &w : table4Workloads)
        for (std::size_t m = 0; m < machines.size(); ++m, ++a)
            addRun(doc, std::string(w.name) + "." + names[m], arms[a],
                   gridContext(args, w, machines[m]));
}

/** The Figure 5 sweep plus the policy arms at 256 entries. */
void
buildFig5(stats::MetricsDocument &doc, const BenchArgs &args)
{
    constexpr std::size_t n = std::size(fig5Workloads);
    const auto sweep =
        runFig5(args, linker::BindPolicy::Lazy, fig5Sizes);
    const std::uint32_t paperDefault[] = {256};
    std::vector<ArmResult> policyArms[std::size(policies)];
    for (std::size_t p = 0; p < std::size(policies); ++p)
        policyArms[p] = runFig5(args, policies[p], paperDefault);

    // Workload-major: each workload's sizes, then its policy arms.
    for (std::size_t i = 0; i < n; ++i) {
        const GridWorkload &w = fig5Workloads[i];
        for (std::size_t s = 0; s < std::size(fig5Sizes); ++s)
            addRun(doc,
                   std::string(w.name) + ".entries" +
                       std::to_string(fig5Sizes[s]),
                   sweep[s * n + i],
                   gridContext(args, w,
                               fig5Machine(linker::BindPolicy::Lazy,
                                           fig5Sizes[s])));
        for (std::size_t p = 0; p < std::size(policies); ++p)
            addRun(doc,
                   std::string(w.name) + "." +
                       linker::bindPolicyName(policies[p]),
                   policyArms[p][i],
                   gridContext(args, w, fig5Machine(policies[p])));
    }
}

/**
 * Re-read `path`, validate it as JSON, and require every key in
 * `required` to appear (as a quoted string) in the document.
 */
bool
validateFile(const std::string &path,
             const std::vector<std::string> &required)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "validate: cannot re-read %s\n",
                     path.c_str());
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    std::string error;
    if (!stats::jsonValidate(text, &error)) {
        std::fprintf(stderr, "validate: %s is not valid JSON: %s\n",
                     path.c_str(), error.c_str());
        return false;
    }
    for (const auto &key : required) {
        if (text.find('"' + key + '"') == std::string::npos) {
            std::fprintf(stderr,
                         "validate: %s is missing required key "
                         "\"%s\"\n",
                         path.c_str(), key.c_str());
            return false;
        }
    }
    std::fprintf(stderr, "validate: %s ok (%zu bytes)\n",
                 path.c_str(), text.size());
    return true;
}

bool
writeDoc(const stats::MetricsDocument &doc,
         const std::string &path)
{
    std::string error;
    if (!doc.writeFile(path, &error)) {
        std::fprintf(stderr, "write: %s\n", error.c_str());
        return false;
    }
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string outDir = ".";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out-dir") == 0 &&
                   i + 1 < argc) {
            outDir = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_to_json [--quick] "
                         "[--out-dir DIR]\n");
            return 2;
        }
    }

    const BenchArgs args("bench_to_json", quick);
    stats::MetricsDocument table4("bench_to_json table4");
    buildTable4(table4, args);
    stats::MetricsDocument fig5("bench_to_json fig5");
    buildFig5(fig5, args);

    const std::string table4Path = outDir + "/BENCH_table4.json";
    const std::string fig5Path = outDir + "/BENCH_fig5.json";
    if (!writeDoc(table4, table4Path) ||
        !writeDoc(fig5, fig5Path))
        return 1;

    // Per-structure counters plus the skip-rate gauge must exist
    // for every workload arm (the enhanced arms carry the skip
    // unit's metrics).
    std::vector<std::string> table4Keys = {
        "dlsim.cpu.l1i.misses",     "dlsim.cpu.l1i.hits",
        "dlsim.cpu.l1i.evictions",  "dlsim.cpu.l1d.misses",
        "dlsim.cpu.itlb.misses",    "dlsim.cpu.dtlb.misses",
        "dlsim.cpu.btb.misses",     "dlsim.cpu.direction.mispredicts",
        "dlsim.core.abtb.evictions", "dlsim.cpu.trampoline_skip_rate",
        "dlsim.core.skip.substitutions",
    };
    // The policy-arm columns must carry their signature metrics:
    // the stable arm its memoized-resolution map, the demand arm
    // its first-touch fault counters.
    table4Keys.push_back("dlsim.linker.stable.map_size");
    table4Keys.push_back("dlsim.mem.demand_faults.total");
    for (const char *w :
         {"apache", "firefox", "memcached", "mysql"}) {
        table4Keys.push_back(std::string(w) + ".base");
        table4Keys.push_back(std::string(w) + ".enhanced");
        table4Keys.push_back(std::string(w) + ".stable");
        table4Keys.push_back(std::string(w) + ".demand");
    }
    std::vector<std::string> fig5Keys = {
        "dlsim.cpu.trampoline_skip_rate",
        "dlsim.core.abtb.hits",
        "dlsim.core.abtb.misses",
        "dlsim.core.abtb.evictions",
        "abtb_entries",
        "bind_policy",
        "dlsim.linker.stable.map_size",
        "dlsim.mem.demand_faults.total",
    };
    for (const char *w : {"apache", "firefox", "memcached"}) {
        fig5Keys.push_back(std::string(w) + ".stable");
        fig5Keys.push_back(std::string(w) + ".demand");
    }
    if (!validateFile(table4Path, table4Keys) ||
        !validateFile(fig5Path, fig5Keys))
        return 1;

    std::fprintf(stderr, "bench_to_json: all outputs valid\n");
    return 0;
}
