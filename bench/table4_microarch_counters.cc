/**
 * @file
 * Table 4: "Performance counters (values are per kilo instruction)"
 * — base vs enhanced for I-$ misses, I-TLB misses, D-$ misses,
 * D-TLB misses, and branch mispredictions, on all four workloads.
 *
 * Paper's shape: every counter drops (or stays flat) when
 * trampolines are skipped; Apache shows the largest absolute
 * pressure and the largest improvements; Memcached's I-TLB conflict
 * misses disappear entirely.
 */

#include "figures.hh"

using namespace dlsim;
using namespace dlsim::bench;

namespace
{

/** The paper's Table 4 values, in table4Workloads order. */
struct PaperRow
{
    double icB, icE, itlbB, itlbE, dcB, dcE, dtlbB, dtlbE, brB, brE;
};

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args("table4_microarch_counters", argc, argv);
    banner("Table 4 — microarchitectural counters PKI, "
           "base vs enhanced",
           "Section 5.2, Table 4");
    JsonOut json("table4_microarch_counters", args);

    const PaperRow rows[] = {
        {109.31, 104.22, 1.78, 1.18, 7.96, 7.56, 4.03, 4.62, 13.46,
         12.32},
        {10.70, 10.38, 0.87, 0.79, 2.66, 2.67, 1.54, 1.75, 4.84,
         4.77},
        {51.99, 51.42, 0.03, 0.00, 12.25, 12.16, 4.74, 4.73, 5.48,
         5.30},
        {25.21, 24.93, 2.41, 2.36, 8.48, 8.46, 2.86, 2.77, 14.44,
         14.40},
    };
    static_assert(std::size(rows) == std::size(table4Workloads));

    const std::vector<workload::MachineConfig> machines = {
        baseMachine(args), enhancedMachine(args)};
    const auto arms = runTable4(args, machines);

    for (std::size_t i = 0; i < std::size(rows); ++i) {
        const GridWorkload &w = table4Workloads[i];
        const PaperRow &row = rows[i];
        const ArmResult &base = arms[2 * i];
        const ArmResult &enh = arms[2 * i + 1];
        const auto &b = base.counters;
        const auto &e = enh.counters;

        json.add(std::string(w.name) + ".base", base,
                 gridContext(args, w, machines[0]));
        json.add(std::string(w.name) + ".enhanced", enh,
                 gridContext(args, w, machines[1]));

        std::printf("--- %s ---\n", w.name);
        stats::TablePrinter t({"Counter PKI", "Base", "Enhanced",
                               "Paper base", "Paper enhanced"});
        auto add = [&](const char *name, double mb, double me,
                       double pb, double pe) {
            t.addRow({name, stats::TablePrinter::num(mb),
                      stats::TablePrinter::num(me),
                      stats::TablePrinter::num(pb),
                      stats::TablePrinter::num(pe)});
        };
        add("I-$ misses", b.pki(b.l1iMisses), e.pki(e.l1iMisses),
            row.icB, row.icE);
        add("I-TLB misses", b.pki(b.itlbMisses),
            e.pki(e.itlbMisses), row.itlbB, row.itlbE);
        add("D-$ misses", b.pki(b.l1dMisses), e.pki(e.l1dMisses),
            row.dcB, row.dcE);
        add("D-TLB misses", b.pki(b.dtlbMisses),
            e.pki(e.dtlbMisses), row.dtlbB, row.dtlbE);
        add("Branch mispredictions", b.pki(b.mispredicts),
            e.pki(e.mispredicts), row.brB, row.brE);
        add("Trampoline insts", b.pki(b.trampolineInsts),
            e.pki(e.trampolineInsts), 0, 0);
        std::printf("%s", t.render().c_str());
        std::printf("cycles: base %llu, enhanced %llu "
                    "(%.2f%% faster)\n\n",
                    (unsigned long long)b.cycles,
                    (unsigned long long)e.cycles,
                    100.0 * (double(b.cycles) - double(e.cycles)) /
                        double(b.cycles));
    }
    return json.write() ? 0 : 1;
}
