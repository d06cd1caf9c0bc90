/**
 * @file
 * Figure 5: "Percentage of library function call trampolines
 * skipped for different sizes of ABTB" plus the §5.3 hardware-cost
 * accounting (12 bytes per entry; 192 bytes at 16 entries).
 *
 * Paper's shape: >75% of trampolines skipped at 16 entries for all
 * of apache/firefox/memcached; near-total skipping at 256 entries;
 * steep slopes reveal per-workload ABTB "working sets".
 */

#include "common.hh"

using namespace dlsim;
using namespace dlsim::bench;

namespace
{

double
skipRate(const ArmResult &arm)
{
    const auto &c = arm.counters;
    const auto total = c.skippedTrampolines + c.trampolineJmps;
    return total == 0 ? 0.0
                      : 100.0 * double(c.skippedTrampolines) /
                            double(total);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args("fig5_abtb_sweep", argc, argv);
    banner("Figure 5 — trampolines skipped vs ABTB size",
           "Sections 5.3, Figure 5");
    JsonOut json("fig5_abtb_sweep", args);

    // Firefox lazily binds thousands of symbols; each first call
    // ends in a GOT store that flushes the ABTB ("once per library
    // call, at the start" — §3.2). A long warmup amortises that
    // startup phase, as the paper's 10-minute runs did.
    const char *profiles[] = {"apache", "firefox", "memcached"};
    const int warmups[] = {300, 1200, 150};
    const int requests[] = {400, 250, 350};
    const std::uint32_t sizes[] = {1u,  2u,   4u,   8u,
                                   16u, 32u,  64u,  128u,
                                   256u, 512u, 1024u};

    // Warm-up-once: each workload warms a single reference machine
    // and is checkpointed; every ABTB size then fans out from those
    // bytes with a fresh cold skip unit of its own geometry. The 11
    // sizes share one warm-up instead of simulating it 11 times
    // (and --from-snapshot skips it entirely).
    workload::MachineConfig refMc = enhancedMachine(args);
    workload::WorkloadParams wls[3];
    std::shared_ptr<const workload::BuiltProgram> progs[3];
    std::vector<std::uint8_t> states[3];
    for (int i = 0; i < 3; ++i) {
        wls[i] = workload::profileByName(profiles[i]);
        wls[i].seed = args.seed();
        progs[i] = std::make_shared<const workload::BuiltProgram>(
            workload::buildProgram(wls[i]));
        states[i] = warmState(args, profiles[i], wls[i], refMc,
                              args.scaled(warmups[i]), progs[i]);
    }

    // One job per (size, workload) cell; the whole grid runs on
    // --jobs threads and is consumed below in submission order.
    struct Cell
    {
        std::uint32_t entries;
        int profile;
    };
    std::vector<Cell> cells;
    for (const std::uint32_t entries : sizes)
        for (int i = 0; i < 3; ++i)
            cells.push_back({entries, i});

    std::vector<std::function<ArmResult()>> work;
    work.reserve(cells.size());
    for (const Cell &cell : cells) {
        work.push_back([cell, &args, &refMc, &wls, &progs,
                        &states, &requests] {
            workload::MachineConfig mc = enhancedMachine(args);
            mc.abtbEntries = cell.entries;
            mc.abtbAssoc = std::min(cell.entries, 4u);
            return runArmFromState(
                states[cell.profile], wls[cell.profile], refMc,
                mc, args.scaled(requests[cell.profile]),
                args.sample(), progs[cell.profile]);
        });
    }
    const auto arms = runJobs(args, std::move(work));

    stats::TablePrinter table({"Entries", "Bytes", "apache",
                               "firefox", "memcached"});
    for (std::size_t c = 0; c < cells.size(); c += 3) {
        const std::uint32_t entries = cells[c].entries;
        std::vector<std::string> row{
            std::to_string(entries),
            std::to_string(entries * core::AbtbEntryBytes)};
        for (int i = 0; i < 3; ++i) {
            const ArmResult &arm = arms[c + i];
            json.add(std::string(profiles[i]) + ".entries" +
                         std::to_string(entries),
                     arm,
                     withSampleContext(
                         args,
                         {{"workload", profiles[i]},
                          {"machine", "enhanced"},
                          {"abtb_entries",
                           std::to_string(entries)},
                          {"seed", std::to_string(args.seed())},
                          {"requests",
                           std::to_string(
                               args.scaled(requests[i]))}}));
            row.push_back(stats::TablePrinter::num(skipRate(arm),
                                                   1) +
                          "%");
        }
        table.addRow(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper: 16 entries (192 bytes) skip >75%% in all "
                "workloads;\n");
    std::printf("       256 entries skip nearly all actively "
                "used trampolines.\n");
    return json.write() ? 0 : 1;
}
