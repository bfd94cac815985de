/**
 * @file
 * Ablation: the context predictor's design knobs.
 *
 * The paper fixes history length 4 and a shared 2^20 second level and
 * notes both choices matter (Sec. 3 sharing effects, Sec. 4.4 history
 * length and p,p->n termination). This bench sweeps both knobs on the
 * gcc and compress analogs and reports how propagation and context
 * termination respond.
 */

#include "bench_common.hh"

#include "support/string_utils.hh"
#include "support/table_printer.hh"

int
main()
{
    using namespace ppm;
    using namespace ppm::bench;

    TablePrinter table(
        "Context-predictor ablation (propagation / p,{p,i}->n "
        "termination, % of nodes+arcs)");
    table.addRow({"workload", "history", "L2", "prop %",
                  "ctx-term %"});

    // All 12 sweep cells share one profile per workload; the engine
    // profiles gcc and compress once each and fuses 6 configs.
    struct Cell
    {
        const char *name;
        unsigned hist;
        bool shared;
    };
    std::vector<Cell> cells;
    std::vector<ExperimentJob> jobs;
    for (const char *name : {"gcc", "compress"}) {
        for (unsigned hist : {1u, 2u, 4u}) {
            for (bool shared : {true, false}) {
                ExperimentConfig config =
                    benchConfig(PredictorKind::Context);
                config.dpg.predictor.historyLen = hist;
                config.dpg.predictor.sharedL2 = shared;
                config.dpg.trackInfluence = false;
                cells.push_back({name, hist, shared});
                jobs.push_back(engine().makeJob(findWorkload(name),
                                                config));
            }
        }
    }

    const std::vector<ExperimentOutcome> outcomes =
        engine().run(jobs);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const DpgStats &stats = outcomes[i].stats;
        const double prop = pctOfElements(
            stats,
            stats.nodes.propagates() + stats.arcs.propagates());
        const double ctx_term = pctOfElements(
            stats, stats.nodes.count(NodeClass::TermPredPred) +
                       stats.nodes.count(NodeClass::TermPredImm));
        table.addRow({cells[i].name, std::to_string(cells[i].hist),
                      cells[i].shared ? "shared" : "private",
                      formatDouble(prop, 2),
                      formatDouble(ctx_term, 2)});
    }
    printStageSummary(std::cerr, engine());
    table.print(std::cout);
    std::cout <<
        "\nExpected shape: longer history raises propagation and\n"
        "lowers the finite-context p,p->n / p,i->n termination the\n"
        "paper analyzes in Sec. 4.4.\n";
    return 0;
}
