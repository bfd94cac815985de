/**
 * @file
 * `ppm` — the command-line front end to the predictability model.
 *
 *     ppm asm <file.s>                     assemble + report
 *     ppm disasm <file.s>                  assembled listing
 *     ppm run <file.s> [opts]              execute a program
 *     ppm analyze <file.s|workload> [opts] run the DPG model
 *     ppm graph <file.s|workload> [opts]   emit a Fig.3-style DPG
 *                                          window as Graphviz dot
 *     ppm workloads                        list the SPEC95 analogs
 *     ppm metrics [workload] [opts]        run one instrumented
 *                                          analysis and dump every
 *                                          metric (--json for the
 *                                          "ppm-metrics-v1" document)
 *     ppm fuzz [opts]                      sweep seeded scenario
 *                                          families through the model
 *                                          under verification and emit
 *                                          a fingerprint corpus
 *                                          (--list for the families)
 *     ppm import <file.trace>              analyze an external branch
 *                                          trace (CBP/ChampSim-style
 *                                          text records, plain or
 *                                          gzip'd) and emit its
 *                                          fingerprint
 *     ppm converge <workload> [opts]       sampled-vs-full
 *                                          convergence curves
 *                                          (ppm-converge-v1; exit 1
 *                                          when any per-predictor
 *                                          accuracy error exceeds
 *                                          --threshold percent)
 *     ppm serve [opts]                     resident analysis daemon
 *                                          speaking ppm-serve-v1 over
 *                                          a local socket
 *     ppm client [opts]                    send requests to a daemon
 *     ppm --version                        tool + schema versions
 *
 * Exit codes (uniform across subcommands):
 *     0  success
 *     1  analysis / verification / request failure
 *     2  usage or environment error (bad flags, malformed PPM_* vars)
 *
 * Common options:
 *     --max N            dynamic instruction budget (default 4000000)
 *     --predictor P      last | stride | context   (default context)
 *     --all-predictors   (analyze) run and tabulate all three
 *     --seed S           workload input seed
 *     --input v,v,...    inline input stream (run/analyze on files)
 *     --input-file F     input stream, one value per line
 *     --trace            (run) print every executed instruction
 *     --save-trace F     (run) capture the dynamic trace to F
 *     --trace-file F     (analyze) replay a captured trace instead
 *                        of simulating
 *     --report R,...     (analyze) any of: overall, gen, prop, term,
 *                        paths, trees, sequences, branches, unpred,
 *                        critical, json   (default: overall)
 */

#include <chrono>
#include <cmath>
#include <csignal>
#include <fstream>
#include <memory>
#include <iostream>
#include <sstream>

#include "analysis/experiment.hh"
#include "analysis/figures.hh"
#include "obs/obs.hh"
#include "runner/engine.hh"
#include "asmr/assembler.hh"
#include "dpg/dpg_graph.hh"
#include "isa/disasm.hh"
#include "report/figure_report.hh"
#include "report/json_emitter.hh"
#include "runner/fused_sink.hh"
#include "runner/sampled_run.hh"
#include "runner/trace_import.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/machine.hh"
#include "sim/trace_file.hh"
#include "support/cli_args.hh"
#include "support/env.hh"
#include "support/gzip.hh"
#include "support/mini_json.hh"
#include "support/version.hh"
#include "support/string_utils.hh"
#include "support/table_printer.hh"
#include "verify/families.hh"
#include "verify/fingerprint.hh"
#include "verify/fuzz_farm.hh"
#include "verify/invariant_checker.hh"
#include "workloads/workload.hh"

namespace {

using namespace ppm;

[[noreturn]] void
usage(const std::string &message = "")
{
    if (!message.empty())
        std::cerr << "ppm: " << message << "\n\n";
    std::cerr <<
        "usage:\n"
        "  ppm asm <file.s>\n"
        "  ppm disasm <file.s>\n"
        "  ppm run <file.s> [--max N] [--trace]\n"
        "          [--input v,v,...] [--input-file F]\n"
        "  ppm analyze <file.s | workload-name>\n"
        "          [--predictor last|stride|context] [--max N]\n"
        "          [--seed S] [--report overall,paths,...]\n"
        "  ppm workloads\n"
        "  ppm metrics [workload | file.s] [--json]\n"
        "          [--predictor last|stride|context] [--max N]\n"
        "  ppm fuzz [--families a,b,...] [--seeds LO-HI] [--slice]\n"
        "          [--no-verify] [--out corpus.json] [--list]\n"
        "  ppm import <file.trace> [--verify] [--out fp.json]\n"
        "  ppm converge <file.s | workload-name>\n"
        "          [--budgets N,N,...] [--predictor all|last|...]\n"
        "          [--interval N] [--warmup N] [--phases N]\n"
        "          [--threshold PCT] [--seed S]\n"
        "          [--out curves.json] [--csv curves.csv]\n"
        "  ppm serve (--socket PATH | --port N) [--max-inflight N]\n"
        "          [--max N] [--cap N]\n"
        "  ppm client (--socket PATH | --port N) [file.s]\n"
        "          [--workload W | --family F | --trace-file T]\n"
        "          [--predictor all|last|stride|context] [--max N]\n"
        "          [--seed S] [--id ID] [--count N]\n"
        "          [--stats] [--ping] [--shutdown] [--json REQ]\n"
        "  ppm --version\n";
    std::exit(2);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        usage("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

PredictorKind
parsePredictor(const std::string &name)
{
    if (name == "last" || name == "last-value")
        return PredictorKind::LastValue;
    if (name == "stride")
        return PredictorKind::Stride2Delta;
    if (name == "context")
        return PredictorKind::Context;
    usage("unknown predictor '" + name + "'");
}

std::vector<Value>
parseInputList(const std::string &list)
{
    std::vector<Value> out;
    for (const auto piece : splitAndTrim(list, ',')) {
        if (piece.empty())
            continue;
        out.push_back(static_cast<Value>(
            std::stoll(std::string(piece), nullptr, 0)));
    }
    return out;
}

std::vector<Value>
parseInputFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        usage("cannot read " + path);
    std::vector<Value> out;
    std::string line;
    while (std::getline(in, line)) {
        const auto t = trim(line);
        if (t.empty() || t[0] == '#')
            continue;
        out.push_back(static_cast<Value>(
            std::stoll(std::string(t), nullptr, 0)));
    }
    return out;
}

/** Resolve `analyze` target: workload name or assembly file. */
struct Target
{
    Program program;
    std::vector<Value> input;
    bool isFloat = false;
};

Target
resolveTarget(const std::string &name, const CliArgs &args)
{
    Target t;
    const std::uint64_t seed = static_cast<std::uint64_t>(
        args.intOption("seed").value_or(
            static_cast<std::int64_t>(kDefaultWorkloadSeed)));

    // Workload names win; anything else is a file path.
    for (const Workload &w : allWorkloads()) {
        if (w.name == name) {
            t.program = assemble(std::string(w.source), w.name);
            t.input = w.makeInput(seed);
            t.isFloat = w.isFloat;
            return t;
        }
    }

    t.program = assemble(readFile(name), name);
    if (const auto list = args.option("input"))
        t.input = parseInputList(*list);
    else if (const auto file = args.option("input-file"))
        t.input = parseInputFile(*file);
    return t;
}

int
cmdAsm(const CliArgs &args)
{
    if (args.positionals().size() != 2)
        usage("asm needs a file");
    const Program prog =
        assemble(readFile(args.positionals()[1]),
                 args.positionals()[1]);
    std::cout << prog.name << ": " << prog.textSize()
              << " instructions, " << prog.dataImage.size()
              << " initialized data words, " << prog.symbols.size()
              << " symbols\n";
    return 0;
}

int
cmdDisasm(const CliArgs &args)
{
    if (args.positionals().size() != 2)
        usage("disasm needs a file");
    const Program prog =
        assemble(readFile(args.positionals()[1]),
                 args.positionals()[1]);

    // Invert the symbol table for labels.
    for (StaticId i = 0; i < prog.textSize(); ++i) {
        for (const auto &[sym, value] : prog.symbols) {
            if (value == textAddr(i))
                std::cout << sym << ":\n";
        }
        std::cout << "  " << i << ":\t"
                  << disassemble(prog.text[i]) << "\n";
    }
    return 0;
}

/** Trace printer for `run --trace`. */
class TracePrinter : public TraceSink
{
  public:
    void
    onInstr(const DynInstr &di) override
    {
        std::cout << di.seq << "\t" << di.pc << "\t"
                  << disassemble(*di.instr);
        if (di.hasValueOutput())
            std::cout << "\t-> 0x" << std::hex << di.outValue
                      << std::dec;
        if (di.isBranch)
            std::cout << "\t" << (di.taken ? "taken" : "not-taken");
        std::cout << "\n";
    }
};

int
cmdRun(const CliArgs &args)
{
    if (args.positionals().size() != 2)
        usage("run needs a file");
    Target t = resolveTarget(args.positionals()[1], args);
    const std::uint64_t max_instrs = static_cast<std::uint64_t>(
        args.intOption("max").value_or(4'000'000));

    TracePrinter printer;
    std::unique_ptr<TraceWriter> writer;
    if (const auto trace_path = args.option("save-trace"))
        writer = std::make_unique<TraceWriter>(*trace_path, t.program);

    Machine m(t.program, std::move(t.input));
    TraceSink *sink = nullptr;
    if (writer)
        sink = writer.get();
    else if (args.flag("trace"))
        sink = &printer;
    const StopReason reason = m.run(sink, max_instrs);
    if (writer) {
        std::cout << "trace: " << formatCount(writer->count())
                  << " records saved\n";
    }

    std::cout << (reason == StopReason::Halted
                      ? "halted"
                      : "instruction budget reached")
              << " after " << formatCount(m.instrCount())
              << " instructions\n";
    return 0;
}

int
cmdAnalyze(const CliArgs &args)
{
    if (args.positionals().size() != 2)
        usage("analyze needs a file or workload name");
    Target t = resolveTarget(args.positionals()[1], args);

    ExperimentConfig config;
    config.maxInstrs = static_cast<std::uint64_t>(
        args.intOption("max").value_or(4'000'000));

    std::vector<PredictorKind> kinds;
    if (args.flag("all-predictors")) {
        kinds.assign(std::begin(kAllPredictorKinds),
                     std::end(kAllPredictorKinds));
    } else {
        kinds.push_back(parsePredictor(
            args.option("predictor").value_or("context")));
    }

    std::vector<RunResult> runs;
    if (const auto trace_path = args.option("trace-file")) {
        // Trace-driven: both passes replay the captured file stream.
        for (PredictorKind kind : kinds) {
            config.dpg.kind = kind;
            ExecProfile profile(t.program.textSize());
            replayTrace(*trace_path, t.program, profile);
            DpgAnalyzer analyzer(t.program, profile, config.dpg);
            replayTrace(*trace_path, t.program, analyzer);
            RunResult run;
            run.isFloat = t.isFloat;
            run.stats = analyzer.takeStats();
            runs.push_back(std::move(run));
        }
    } else {
        // Live: the engine profiles once and analyzes every
        // requested predictor in one fused simulation pass.
        // (t.program stays valid for the report printers below.)
        auto program = std::make_shared<const Program>(t.program);
        auto input = std::make_shared<const std::vector<Value>>(
            std::move(t.input));
        std::vector<ExperimentJob> jobs;
        for (PredictorKind kind : kinds) {
            ExperimentJob job;
            job.program = program;
            job.input = input;
            job.config = config;
            job.config.dpg.kind = kind;
            job.isFloat = t.isFloat;
            jobs.push_back(std::move(job));
        }
        for (auto &outcome :
             ExperimentEngine::shared().run(jobs)) {
            RunResult run;
            run.isFloat = outcome.isFloat;
            run.stats = std::move(outcome.stats);
            runs.push_back(std::move(run));
        }
    }
    const DpgStats &s = runs.front().stats;

    const std::string reports =
        args.option("report").value_or("overall");
    for (const auto piece : splitAndTrim(reports, ',')) {
        const std::string r(piece);
        if (r == "overall") {
            printTable1(std::cout, runs);
            printFig5(std::cout, runs);
        } else if (r == "gen") {
            printFig6(std::cout, runs);
        } else if (r == "prop") {
            printFig7(std::cout, runs);
        } else if (r == "term") {
            printFig8(std::cout, runs);
        } else if (r == "paths") {
            printFig9(std::cout, runs);
        } else if (r == "trees") {
            printFig10(std::cout, s);
            printFig11(std::cout, s);
        } else if (r == "sequences") {
            printFig12(std::cout, runs);
        } else if (r == "branches") {
            printFig13(std::cout, runs);
        } else if (r == "unpred") {
            TablePrinter table(
                "Unpredicted outputs by origin (D=data, "
                "T=terminated, F=fresh)");
            table.addRow({"origin set", "count", "%"});
            for (unsigned mask = 1; mask < 8; ++mask) {
                if (s.unpred.count(mask) == 0)
                    continue;
                table.addRow(
                    {unpredMaskName(static_cast<std::uint8_t>(mask)),
                     formatCount(s.unpred.count(mask)),
                     formatDouble(100.0 *
                                      double(s.unpred.count(mask)) /
                                      double(s.unpred.total()),
                                  1)});
            }
            table.print(std::cout);
            std::cout << "\n";
        } else if (r == "json") {
            writeJson(std::cout, s);
        } else if (r == "critical") {
            TablePrinter table("Critical generate sites");
            table.addRow({"pc", "instruction", "class", "generates",
                          "influenced", "longest"});
            for (const CriticalSite &site :
                 s.trees.criticalSites(10)) {
                table.addRow(
                    {std::to_string(site.pc),
                     disassemble(t.program.text[site.pc]),
                     std::string(generatorClassName(site.cls)),
                     formatCount(site.generates),
                     formatCount(site.influenced),
                     formatCount(site.longest)});
            }
            table.print(std::cout);
            std::cout << "\n";
        } else {
            usage("unknown report '" + r + "'");
        }
    }
    return 0;
}

int
cmdGraph(const CliArgs &args)
{
    if (args.positionals().size() != 2)
        usage("graph needs a file or workload name");
    Target t = resolveTarget(args.positionals()[1], args);
    const std::size_t window = static_cast<std::size_t>(
        args.intOption("window").value_or(64));

    DpgGraphBuilder builder(
        t.program,
        parsePredictor(args.option("predictor").value_or("stride")),
        window);
    Machine m(t.program, std::move(t.input));
    m.run(&builder, window);
    builder.writeDot(std::cout);
    return 0;
}

/**
 * `ppm metrics`: run one workload through the instrumented engine and
 * dump the whole metrics registry, as a smoke view of the
 * observability layer (README, OBSERVABILITY). PPM_METRICS/
 * PPM_TRACE_JSON are not required — the registry is force-enabled
 * here, before any instrumented component is constructed.
 */
int
cmdMetrics(const CliArgs &args)
{
    if (args.positionals().size() > 2)
        usage("metrics takes at most one workload or file");
    obs::forceEnable();

    Target t = resolveTarget(args.positionals().size() == 2
                                 ? args.positionals()[1]
                                 : "compress",
                             args);
    ExperimentConfig config;
    config.maxInstrs = static_cast<std::uint64_t>(
        args.intOption("max").value_or(200'000));
    config.dpg.kind =
        parsePredictor(args.option("predictor").value_or("context"));

    ExperimentJob job;
    job.program = std::make_shared<const Program>(std::move(t.program));
    job.input =
        std::make_shared<const std::vector<Value>>(std::move(t.input));
    job.config = config;
    job.isFloat = t.isFloat;
    ExperimentEngine::shared().run({std::move(job)});

    if (args.flag("json"))
        obs::dumpMetricsJson(std::cout);
    else
        obs::dumpMetricsText(std::cout);
    return 0;
}

/** Parse `--seeds LO-HI` (or `--seeds N` for 1..N). */
void
parseSeedRange(const std::string &spec, std::uint64_t &lo,
               std::uint64_t &hi)
{
    const auto dash = spec.find('-');
    try {
        if (dash == std::string::npos) {
            lo = 1;
            hi = std::stoull(spec);
        } else {
            lo = std::stoull(spec.substr(0, dash));
            hi = std::stoull(spec.substr(dash + 1));
        }
    } catch (const std::exception &) {
        usage("bad --seeds '" + spec + "' (want N or LO-HI)");
    }
    if (lo > hi)
        usage("bad --seeds '" + spec + "' (LO exceeds HI)");
}

/** Emit @p document to --out when given, stdout otherwise. */
void
writeDocument(const CliArgs &args, const std::string &document)
{
    if (const auto out = args.option("out")) {
        std::ofstream f(*out);
        if (!f)
            usage("cannot write " + *out);
        f << document;
    } else {
        std::cout << document;
    }
}

int
cmdFuzz(const CliArgs &args)
{
    if (args.flag("list")) {
        TablePrinter table("Scenario families");
        table.addRow({"name", "instr bound", "description"});
        for (const verify::ScenarioFamily &f :
             verify::allFamilies()) {
            table.addRow({f.name, formatCount(f.instrBound),
                          f.description});
        }
        table.print(std::cout);
        return 0;
    }

    verify::FuzzOptions fopts;
    if (const auto fams = args.option("families")) {
        for (const auto piece : splitAndTrim(*fams, ','))
            if (!piece.empty())
                fopts.families.emplace_back(piece);
    }
    if (const auto seeds = args.option("seeds"))
        parseSeedRange(*seeds, fopts.seedLo, fopts.seedHi);
    fopts.slice = args.flag("slice");
    fopts.verify = !args.flag("no-verify");

    const verify::FuzzResult result =
        verify::runFuzzFarm(fopts, &std::cerr);

    // The corpus must validate against its own schema before anyone
    // gets to read it.
    const auto errors = verify::validateCorpus(parseJson(result.corpus));
    for (const std::string &e : errors)
        std::cerr << "corpus schema violation: " << e << "\n";
    if (!errors.empty())
        return 1;

    writeDocument(args, result.corpus);
    std::cerr << "fuzz: " << result.programs << " programs, "
              << result.fingerprints.size() << " fingerprints, "
              << result.failures.size() << " failures, "
              << formatCount(result.dynInstrs)
              << " dynamic instructions\n";
    return result.failures.empty() ? 0 : 1;
}

int
cmdImport(const CliArgs &args)
{
    if (args.positionals().size() != 2)
        usage("import needs a trace file");
    const std::string &path = args.positionals()[1];
    ImportedTrace trace;
    if (isGzipFile(path)) {
        std::istringstream in(gunzipFile(path));
        trace = parseBranchTrace(in, path);
    } else {
        std::ifstream in(path);
        if (!in)
            usage("cannot read " + path);
        trace = parseBranchTrace(in, path);
    }

    // Pass 1 over the imported stream, then the model per predictor —
    // the same two-pass discipline as a simulated program.
    ExecProfile profile(trace.program.textSize());
    replayImported(trace, profile);

    std::vector<DpgStats> runs;
    for (PredictorKind kind : kAllPredictorKinds) {
        DpgConfig cfg;
        cfg.kind = kind;
        cfg.verify = args.flag("verify");
        DpgAnalyzer analyzer(trace.program, profile, cfg);
        replayImported(trace, analyzer);
        DpgStats stats = analyzer.takeStats();
        const auto violations =
            verify::InvariantChecker::audit(stats, cfg.trackInfluence);
        for (const std::string &v : violations)
            std::cerr << "invariant violation: " << v << "\n";
        if (!violations.empty())
            return 1;
        runs.push_back(std::move(stats));
    }

    const std::string fp =
        verify::fingerprintJson("trace:" + path, 0, runs);
    const auto errors = verify::validateFingerprint(parseJson(fp));
    for (const std::string &e : errors)
        std::cerr << "fingerprint schema violation: " << e << "\n";
    if (!errors.empty())
        return 1;

    writeDocument(args, fp + "\n");
    std::cerr << "import: " << formatCount(trace.stream.size())
              << " branch records, " << trace.staticBranches()
              << " static branches\n";
    return 0;
}

// The active daemon, for the SIGTERM/SIGINT handler. requestStop()
// is async-signal-safe (one atomic store + one write()).
serve::Server *g_server = nullptr;

extern "C" void
handleStopSignal(int)
{
    if (g_server)
        g_server->requestStop();
}

/**
 * `ppm converge`: metric-vs-budget convergence curves validating the
 * phase-sampled scheduler (PPM_SAMPLE / runner/sampled_run.hh)
 * against full analysis. For each budget the workload is analyzed
 * twice — the exact two-pass path and the sampled path — and the
 * fingerprint accuracy metrics (output_acc_pct, gshare_acc_pct) are
 * compared per predictor. Emits a human table, optionally a
 * ppm-converge-v1 JSON document (--out) and a CSV (--csv), and fails
 * (exit 1) when any absolute error exceeds --threshold percent.
 */
int
cmdConverge(const CliArgs &args)
{
    using Clock = std::chrono::steady_clock;

    if (args.positionals().size() != 2)
        usage("converge needs a file or workload name");
    Target t = resolveTarget(args.positionals()[1], args);

    std::vector<std::uint64_t> budgets;
    for (const auto piece : splitAndTrim(
             args.option("budgets").value_or("500000,1000000,"
                                             "2000000,4000000"),
             ',')) {
        if (piece.empty())
            continue;
        try {
            budgets.push_back(std::stoull(std::string(piece)));
        } catch (const std::exception &) {
            usage("bad --budgets value '" + std::string(piece) +
                  "'");
        }
    }
    if (budgets.empty())
        usage("--budgets needs at least one budget");

    SampleOptions sopts;
    sopts.intervalLen = static_cast<std::uint64_t>(
        args.intOption("interval").value_or(100'000));
    sopts.warmupLen = static_cast<std::uint64_t>(
        args.intOption("warmup").value_or(50'000));
    sopts.maxPhases = static_cast<unsigned>(
        args.intOption("phases").value_or(8));
    if (!sopts.enabled() || sopts.maxPhases == 0)
        usage("--interval and --phases must be >= 1");

    double threshold = 1.0;
    if (const auto th = args.option("threshold")) {
        try {
            threshold = std::stod(*th);
        } catch (const std::exception &) {
            usage("bad --threshold '" + *th + "'");
        }
    }

    std::vector<PredictorKind> kinds;
    const std::string pred =
        args.option("predictor").value_or("all");
    if (pred == "all") {
        kinds.assign(std::begin(kAllPredictorKinds),
                     std::end(kAllPredictorKinds));
    } else {
        kinds.push_back(parsePredictor(pred));
    }
    std::vector<DpgConfig> configs;
    for (PredictorKind kind : kinds) {
        DpgConfig cfg;
        cfg.kind = kind;
        configs.push_back(cfg);
    }

    // Fingerprint accuracy metrics (verify/fingerprint.cc): the
    // output-accuracy share of classified nodes plus the gshare hit
    // rate — the two curves the figures hinge on.
    const auto outputAcc = [](const DpgStats &s) {
        const std::uint64_t gen = s.nodes.generates();
        const std::uint64_t prop = s.nodes.propagates();
        const std::uint64_t classified =
            gen + prop + s.nodes.terminates() +
            s.nodes.count(NodeClass::UnpredFlow);
        return classified
                   ? 100.0 * double(gen + prop) / double(classified)
                   : 0.0;
    };

    TablePrinter table("Sampled-vs-full convergence (" +
                       std::string(args.positionals()[1]) + ")");
    table.addRow({"budget", "pred", "out% full", "out% samp",
                  "err", "gsh% full", "gsh% samp", "err",
                  "speedup"});

    std::string csv = "budget,predictor,output_acc_full_pct,"
                      "output_acc_sampled_pct,output_acc_err_pct,"
                      "gshare_acc_full_pct,gshare_acc_sampled_pct,"
                      "gshare_acc_err_pct,full_s,sampled_s,"
                      "speedup\n";
    std::string json = "{\"schema\":\"ppm-converge-v1\"";
    json += ",\"target\":\"" +
            jsonEscape(args.positionals()[1]) + "\"";
    json += ",\"interval\":" + std::to_string(sopts.intervalLen);
    json += ",\"warmup\":" + std::to_string(sopts.warmupLen);
    json += ",\"max_phases\":" + std::to_string(sopts.maxPhases);
    json += ",\"threshold_pct\":" + formatDouble(threshold, 4);
    json += ",\"budgets\":[";

    double maxErr = 0.0;
    bool firstBudget = true;
    for (const std::uint64_t budget : budgets) {
        // Full reference: the exact two-pass analysis, every
        // predictor as one lane over one stream production.
        const auto f0 = Clock::now();
        ExecProfile profile(t.program.textSize());
        {
            Machine m(t.program, t.input);
            m.run(&profile, budget);
        }
        FusedAnalysisSink sink(1);
        for (const DpgConfig &cfg : configs) {
            sink.addLane(std::make_unique<DpgAnalyzer>(
                t.program, profile, cfg));
        }
        {
            Machine m(t.program, t.input);
            m.run(&sink, budget);
        }
        std::vector<DpgStats> full;
        for (std::size_t i = 0; i < configs.size(); ++i)
            full.push_back(sink.takeStats(i));
        const double fullSec =
            std::chrono::duration<double>(Clock::now() - f0)
                .count();

        const auto s0 = Clock::now();
        SampledResult sampled = runSampledAnalysis(
            t.program, t.input, budget, configs, sopts, 1);
        const double sampledSec =
            std::chrono::duration<double>(Clock::now() - s0)
                .count();
        const double speedup =
            sampledSec > 0.0 ? fullSec / sampledSec : 0.0;

        if (!firstBudget)
            json += ",";
        firstBudget = false;
        json += "{\"budget\":" + std::to_string(budget);
        json += ",\"phases\":" +
                std::to_string(sampled.timing.phases);
        json += ",\"sampled_instrs\":" +
                std::to_string(sampled.timing.sampledInstrs);
        json += ",\"full_s\":" + formatDouble(fullSec, 4);
        json += ",\"sampled_s\":" + formatDouble(sampledSec, 4);
        json += ",\"speedup\":" + formatDouble(speedup, 2);
        json += ",\"predictors\":[";

        for (std::size_t i = 0; i < configs.size(); ++i) {
            const double of = outputAcc(full[i]);
            const double os = outputAcc(sampled.stats[i]);
            const double gf = 100.0 * full[i].gshareAccuracy;
            const double gs =
                100.0 * sampled.stats[i].gshareAccuracy;
            const double oe = std::abs(of - os);
            const double ge = std::abs(gf - gs);
            maxErr = std::max({maxErr, oe, ge});

            const std::string kindName(
                predictorName(configs[i].kind));
            table.addRow({formatCount(budget), kindName,
                          formatDouble(of, 2), formatDouble(os, 2),
                          formatDouble(oe, 2), formatDouble(gf, 2),
                          formatDouble(gs, 2), formatDouble(ge, 2),
                          formatDouble(speedup, 1) + "x"});
            csv += std::to_string(budget) + "," + kindName + "," +
                   formatDouble(of, 4) + "," + formatDouble(os, 4) +
                   "," + formatDouble(oe, 4) + "," +
                   formatDouble(gf, 4) + "," + formatDouble(gs, 4) +
                   "," + formatDouble(ge, 4) + "," +
                   formatDouble(fullSec, 4) + "," +
                   formatDouble(sampledSec, 4) + "," +
                   formatDouble(speedup, 2) + "\n";
            if (i)
                json += ",";
            json += "{\"predictor\":\"" + kindName + "\"";
            json += ",\"output_acc_full_pct\":" +
                    formatDouble(of, 4);
            json += ",\"output_acc_sampled_pct\":" +
                    formatDouble(os, 4);
            json += ",\"output_acc_err_pct\":" +
                    formatDouble(oe, 4);
            json += ",\"gshare_acc_full_pct\":" +
                    formatDouble(gf, 4);
            json += ",\"gshare_acc_sampled_pct\":" +
                    formatDouble(gs, 4);
            json +=
                ",\"gshare_acc_err_pct\":" + formatDouble(ge, 4);
            json += "}";
        }
        json += "]}";
    }
    const bool pass = maxErr <= threshold;
    json += "],\"max_err_pct\":" + formatDouble(maxErr, 4);
    json += ",\"pass\":";
    json += pass ? "true" : "false";
    json += "}\n";

    table.print(std::cout);
    std::cout << "converge: max abs error "
              << formatDouble(maxErr, 3) << "% (threshold "
              << formatDouble(threshold, 2) << "%) — "
              << (pass ? "PASS" : "FAIL") << "\n";

    if (const auto csvPath = args.option("csv")) {
        std::ofstream f(*csvPath);
        if (!f)
            usage("cannot write " + *csvPath);
        f << csv;
    }
    if (args.option("out"))
        writeDocument(args, json);
    return pass ? 0 : 1;
}

int
cmdServe(const CliArgs &args)
{
    serve::ServerOptions opts;
    if (const auto s = args.option("socket"))
        opts.unixPath = *s;
    const bool havePort = args.option("port").has_value();
    if (const auto p = args.intOption("port"))
        opts.port = static_cast<std::uint16_t>(*p);
    if (opts.unixPath.empty() && !havePort)
        usage("serve needs --socket PATH or --port N");
    if (const auto m = args.intOption("max-inflight"))
        opts.maxInflight = static_cast<unsigned>(*m);
    if (const auto m = args.intOption("max"))
        opts.defaultMaxInstrs = static_cast<std::uint64_t>(*m);
    if (const auto m = args.intOption("cap"))
        opts.maxInstrsCap = static_cast<std::uint64_t>(*m);

    serve::Server server(opts);
    server.start();
    g_server = &server;
    std::signal(SIGTERM, handleStopSignal);
    std::signal(SIGINT, handleStopSignal);

    if (!opts.unixPath.empty())
        std::cout << "ppm serve: listening on " << opts.unixPath;
    else
        std::cout << "ppm serve: listening on 127.0.0.1:"
                  << server.port();
    std::cout << " (threads " << server.engine().threads()
              << ", max-inflight " << opts.maxInflight << ")"
              << std::endl;

    server.serveUntilStopped();
    g_server = nullptr;

    const serve::ServerStats stats = server.stats();
    std::cerr << "ppm serve: drained — " << stats.connections
              << " connections, " << stats.served << " served, "
              << stats.failed << " failed, " << stats.overloaded
              << " rejected\n";
    return 0;
}

/** Build the request line(s) `ppm client` will send. */
std::vector<std::string>
clientRequestLines(const CliArgs &args)
{
    if (const auto raw = args.option("json"))
        return {*raw};

    std::string kind;
    std::string body;
    if (args.flag("ping")) {
        kind = "ping";
    } else if (args.flag("stats")) {
        kind = "stats";
    } else if (args.flag("shutdown")) {
        kind = "shutdown";
    } else {
        kind = "analyze";
        if (const auto w = args.option("workload")) {
            body += ",\"workload\":\"" + serve::jsonEscape(*w) +
                    "\"";
        } else if (const auto f = args.option("family")) {
            body += ",\"family\":\"" + serve::jsonEscape(*f) + "\"";
        } else if (const auto t = args.option("trace-file")) {
            kind = "trace";
            body += ",\"name\":\"" + serve::jsonEscape(*t) +
                    "\",\"records\":\"" +
                    serve::jsonEscape(readFile(*t)) + "\"";
        } else if (args.positionals().size() > 1) {
            const std::string &path = args.positionals()[1];
            body += ",\"name\":\"" + serve::jsonEscape(path) +
                    "\",\"source\":\"" +
                    serve::jsonEscape(readFile(path)) + "\"";
        } else {
            usage("client needs a request: file.s, --workload, "
                  "--family, --trace-file, --stats, --ping, "
                  "--shutdown, or --json");
        }
        if (const auto p = args.option("predictor")) {
            if (*p != "all")
                parsePredictor(*p); // Reject unknown names early.
            body += ",\"predictor\":\"" + *p + "\"";
        }
        if (const auto m = args.intOption("max"))
            body += ",\"max_instrs\":" + std::to_string(*m);
        if (const auto s = args.intOption("seed"))
            body += ",\"seed\":" + std::to_string(*s);
    }

    const auto count = args.intOption("count").value_or(1);
    const std::string baseId = args.option("id").value_or("req");
    std::vector<std::string> lines;
    for (std::int64_t i = 0; i < count; ++i) {
        const std::string id =
            count == 1 ? baseId : baseId + "-" + std::to_string(i);
        lines.push_back("{\"schema\":\"ppm-serve-v1\",\"kind\":\"" +
                        kind + "\",\"id\":\"" +
                        serve::jsonEscape(id) + "\"" + body + "}");
    }
    return lines;
}

int
cmdClient(const CliArgs &args)
{
    serve::Client client;
    if (const auto s = args.option("socket"))
        client = serve::Client::connectUnix(*s);
    else if (const auto p = args.intOption("port"))
        client = serve::Client::connectTcp(
            static_cast<std::uint16_t>(*p));
    else
        usage("client needs --socket PATH or --port N");

    const std::vector<std::string> lines = clientRequestLines(args);
    for (const std::string &line : lines)
        client.sendLine(line);

    bool allOk = true;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const auto response = client.recvLine();
        if (!response) {
            std::cerr << "client: connection closed after " << i
                      << " of " << lines.size() << " responses\n";
            return 1;
        }
        std::cout << *response << "\n";
        if (!serve::responseOk(*response))
            allOk = false;
    }
    return allOk ? 0 : 1;
}

int
cmdVersion()
{
    std::cout << "ppm " << kPpmVersion << "\n";
    for (const char *schema : kPpmSchemas)
        std::cout << "schema " << schema << "\n";
    return 0;
}

int
cmdWorkloads()
{
    TablePrinter table("Built-in SPEC95-analog workloads");
    table.addRow({"name", "set", "approx dyn instrs", "input words"});
    for (const Workload &w : allWorkloads()) {
        table.addRow({w.name, w.isFloat ? "FP" : "INT",
                      formatCount(w.approxInstrs),
                      formatCount(w.makeInput(kDefaultWorkloadSeed)
                                      .size())});
    }
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv,
                       {"max", "predictor", "seed", "input",
                        "input-file", "report", "window",
                        "save-trace", "trace-file", "families",
                        "seeds", "out", "socket", "port",
                        "max-inflight", "cap",
                        "workload", "family", "json", "id",
                        "count", "budgets", "interval", "warmup",
                        "phases", "threshold", "csv"});
    if (args.flag("version"))
        return cmdVersion();
    if (args.positionals().empty())
        usage();

    try {
        const std::string &cmd = args.positionals()[0];
        if (cmd == "asm")
            return cmdAsm(args);
        if (cmd == "disasm")
            return cmdDisasm(args);
        if (cmd == "run")
            return cmdRun(args);
        if (cmd == "analyze")
            return cmdAnalyze(args);
        if (cmd == "graph")
            return cmdGraph(args);
        if (cmd == "workloads")
            return cmdWorkloads();
        if (cmd == "metrics")
            return cmdMetrics(args);
        if (cmd == "fuzz")
            return cmdFuzz(args);
        if (cmd == "import")
            return cmdImport(args);
        if (cmd == "converge")
            return cmdConverge(args);
        if (cmd == "serve")
            return cmdServe(args);
        if (cmd == "client")
            return cmdClient(args);
        if (cmd == "version")
            return cmdVersion();
        usage("unknown command '" + cmd + "'");
    } catch (const EnvError &e) {
        std::cerr << "environment error: " << e.what() << "\n";
        return 2;
    } catch (const AsmError &e) {
        std::cerr << "assembly error: " << e.what() << "\n";
        return 1;
    } catch (const SimError &e) {
        std::cerr << "simulation trap: " << e.what() << "\n";
        return 1;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
