// Ablation (paper §4.3): the 1/p unbiased rescaling of received boundary
// features (Algorithm 1's "replace H with H/p"). The estimator trade-off:
// scaling keeps E[ẑ] = z but multiplies each surviving boundary feature by
// 1/p, so its variance grows as boundary survivors get scarce. On this
// repo's graphs the boundary/inner ratio is 6-10 (vs the paper's 0.4-5.5)
// and degrees are ~10x smaller, so at p=0.01 a node often keeps 0-2
// boundary neighbors weighted 100x — unbiased but high-variance — while
// the *unscaled* variant degrades gracefully (it is mere neighborhood
// dropout, biased toward the partition interior). At moderate p both are
// equivalent. The paper's Appendix E recommendation of p≈0.1 is where the
// unbiased estimator is strictly safe.

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace bnsgcn;
  const auto opts = api::parse_bench_args(argc, argv);
  bench::print_banner("Ablation", "unbiased 1/p feature rescaling");
  bench::ReportSink sink("Ablation: 1/p rescaling", opts);

  const auto pr = bench::load_preset("products", 0.2 * opts.scale, opts);
  api::RunConfig rcfg = pr.config(api::Method::kBns);
  rcfg.partition.nparts = 8;
  rcfg.trainer.epochs = opts.epochs_or(100);

  std::printf("%-10s %16s %16s\n", "p", "scaled acc %", "unscaled acc %");
  for (const float p : {0.5f, 0.1f, 0.05f, 0.01f}) {
    rcfg.trainer.sample_rate = p;
    rcfg.trainer.unbiased_scaling = true;
    const double scaled =
        100.0 * sink.add(bench::label("products scaled p=%.2f", p), rcfg,
                         api::run(pr.ds, rcfg))
                    .final_test;
    rcfg.trainer.unbiased_scaling = false;
    const double unscaled =
        100.0 * sink.add(bench::label("products unscaled p=%.2f", p), rcfg,
                         api::run(pr.ds, rcfg))
                    .final_test;
    std::printf("%-10.2f %16.2f %16.2f\n", p, scaled, unscaled);
  }
  std::printf("\nexpected shape: identical at moderate p; at p<=0.05 the "
              "1/p variance penalizes the scaled\nestimator on these "
              "low-degree graphs (see header comment), so use p>=0.1 with "
              "scaling.\n");
  return 0;
}
