/**
 * @file
 * Ablation: predictor table capacity.
 *
 * The paper uses 2^16-entry first-level tables; smaller tables alias
 * more static instructions onto shared entries. This bench sweeps the
 * table size on the gcc analog for all three predictor families and
 * reports the propagation share, exposing how much of the headline
 * predictability depends on table capacity.
 */

#include "bench_common.hh"

#include "support/string_utils.hh"
#include "support/table_printer.hh"

int
main()
{
    using namespace ppm;
    using namespace ppm::bench;

    const Workload &w = findWorkload("gcc");

    TablePrinter table(
        "Table-capacity ablation (gcc; node+arc propagation % of "
        "nodes+arcs)");
    table.addRow({"table bits", "last-value", "stride", "context"});

    // 15 sweep cells, one gcc profile, one fused analysis pass.
    const std::vector<unsigned> bit_sweep = {6u, 8u, 10u, 12u, 16u};
    std::vector<ExperimentJob> jobs;
    for (unsigned bits : bit_sweep) {
        for (PredictorKind kind : kAllPredictorKinds) {
            ExperimentConfig config = benchConfig(kind);
            config.dpg.predictor.tableBits = bits;
            config.dpg.trackInfluence = false;
            jobs.push_back(engine().makeJob(w, config));
        }
    }
    const std::vector<ExperimentOutcome> outcomes =
        engine().run(jobs);

    std::size_t cell = 0;
    for (unsigned bits : bit_sweep) {
        std::vector<std::string> row = {std::to_string(bits)};
        for (unsigned k = 0; k < std::size(kAllPredictorKinds);
             ++k, ++cell) {
            const DpgStats &stats = outcomes[cell].stats;
            row.push_back(formatDouble(
                pctOfElements(stats, stats.nodes.propagates() +
                                         stats.arcs.propagates()),
                2));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    printStageSummary(std::cerr, engine());
    return 0;
}
