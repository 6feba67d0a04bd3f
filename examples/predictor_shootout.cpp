/**
 * @file
 * Predictor shootout: every predictor in the zoo against every synthetic
 * benchmark, one row per benchmark, one column per predictor. Useful for
 * exploring the predictor space and for sanity-checking workload
 * calibration against the paper's accuracy fingerprints.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "predictor/factory.hpp"
#include "sim/driver.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/profiles.hpp"

int
main(int argc, char **argv)
{
    uint64_t branches = 500000;
    uint64_t seed = 0;
    std::string specs =
        "bimodal,gshare,pas,gag,pag,path,ifgshare,ifpas,loop,block,"
        "hybrid";
    bool csv = false;

    copra::OptionParser options(
        "copra predictor shootout: the predictor zoo vs the synthetic "
        "SPECint95-like benchmark suite");
    options.addUint("branches", &branches,
                    "dynamic conditional branches per benchmark");
    options.addUint("seed", &seed, "execution seed (0 = canonical)");
    options.addString("predictors", &specs,
                      "comma separated predictor specs (see "
                      "predictor/factory.hpp)");
    options.addFlag("csv", &csv, "emit CSV instead of an aligned table");
    if (!options.parse(argc, argv))
        return 0;

    // Parse the spec list.
    std::vector<std::string> spec_list;
    size_t pos = 0;
    while (pos < specs.size()) {
        size_t comma = specs.find(',', pos);
        spec_list.push_back(specs.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }

    std::vector<std::string> headers = {"benchmark"};
    for (const auto &spec : spec_list)
        headers.push_back(spec);
    copra::Table table(headers);

    for (const auto &name : copra::workload::benchmarkNames()) {
        auto trace =
            copra::workload::makeBenchmarkTrace(name, branches, seed);
        table.row().cell(name);
        // Fresh predictors per benchmark, sharded across the pool.
        std::vector<copra::predictor::PredictorPtr> owners;
        std::vector<copra::predictor::Predictor *> preds;
        for (const auto &spec : spec_list) {
            owners.push_back(copra::predictor::makePredictor(spec));
            preds.push_back(owners.back().get());
        }
        for (const auto &res : copra::sim::runAllParallel(trace, preds))
            table.cell(res.accuracyPercent(), 2);
    }

    if (csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    return 0;
}
