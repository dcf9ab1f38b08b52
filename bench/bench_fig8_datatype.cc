// Figure 8: distribution of datatype-inference sampling errors across
// datasets for both clustering variants. For every discovered property the
// sampled per-value inference is compared against the full-scan joined
// type; errors are binned into [0,0.05), [0.05,0.10), [0.10,0.20), >=0.20
// and normalized by the number of properties. Expected shape: most
// properties in the lowest bin; heterogeneous datasets (ICIJ, CORD19, IYP)
// contribute the outliers.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/datatype_inference.h"
#include "core/pghive.h"

using namespace pghive;

int main() {
  double scale = eval::EnvScale();
  bench::PrintHeader("Datatype inference sampling error distribution",
                     "Figure 8");
  auto zoo = bench::GenerateZoo(scale);

  for (core::ClusterMethod method :
       {core::ClusterMethod::kElsh, core::ClusterMethod::kMinHash}) {
    std::printf("\n--- %s ---\n",
                method == core::ClusterMethod::kElsh ? "ELSH" : "MinHash");
    util::TablePrinter table(
        {"Dataset", "props", "[0,.05)", "[.05,.10)", "[.10,.20)", ">=.20"});
    for (datasets::Dataset& d : zoo) {
      pg::PropertyGraph graph = d.graph;
      core::PgHiveOptions options;
      options.method = method;
      options.seed = 0xF820;
      core::PgHive pipeline(&graph, options);
      if (!pipeline.Run().ok()) continue;

      core::DataTypeOptions dt;
      dt.sample = true;
      core::SamplingErrorReport report =
          core::ComputeSamplingErrors(graph, pipeline.schema(), dt);
      auto bins = report.BinFractions();
      table.AddRow({d.spec.name, std::to_string(report.errors.size()),
                    util::TablePrinter::Fmt(bins[0]),
                    util::TablePrinter::Fmt(bins[1]),
                    util::TablePrinter::Fmt(bins[2]),
                    util::TablePrinter::Fmt(bins[3])});
    }
    table.Print();
  }
  return 0;
}
