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

#include "figures.hh"

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

    // Warm once per workload, then fan every ABTB size out of the
    // checkpoint (--from-snapshot skips the warm-ups entirely).
    const auto arms = runFig5(args, args.bindPolicy(), fig5Sizes);

    stats::TablePrinter table({"Entries", "Bytes", "apache",
                               "firefox", "memcached"});
    std::size_t cell = 0;
    for (const std::uint32_t entries : fig5Sizes) {
        std::vector<std::string> row{
            std::to_string(entries),
            std::to_string(entries * core::AbtbEntryBytes)};
        for (const GridWorkload &w : fig5Workloads) {
            const ArmResult &arm = arms[cell++];
            json.add(std::string(w.name) + ".entries" +
                         std::to_string(entries),
                     arm,
                     gridContext(args, w,
                                 fig5Machine(args.bindPolicy(),
                                             entries)));
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
