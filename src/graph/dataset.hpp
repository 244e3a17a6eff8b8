#pragma once

#include <string>
#include <vector>

#include "common/fields.hpp"
#include "common/rng.hpp"
#include "graph/csr.hpp"
#include "tensor/matrix.hpp"

namespace bnsgcn {

/// A node-classification dataset: graph + features + targets + split.
///
/// Single-label datasets (Reddit/ogbn-style) use `labels` and softmax CE;
/// multi-label datasets (Yelp-style) use `multilabels` (n × num_classes of
/// 0/1) and sigmoid BCE with micro-F1 as the metric, matching the paper's
/// evaluation protocol per dataset.
struct Dataset {
  std::string name;
  Csr graph;
  Matrix features;                 // n × feat_dim
  std::vector<int> labels;         // n (single-label) — empty if multilabel
  Matrix multilabels;              // n × num_classes — empty if single-label
  int num_classes = 0;
  bool multilabel = false;

  std::vector<NodeId> train_nodes;
  std::vector<NodeId> val_nodes;
  std::vector<NodeId> test_nodes;

  [[nodiscard]] NodeId num_nodes() const { return graph.n; }
  [[nodiscard]] std::int64_t feat_dim() const { return features.cols(); }

  /// Structural invariants (split disjointness/coverage, shapes).
  void validate() const;
};

/// Parameters of the synthetic dataset generator. The defaults are
/// overridden by the presets below to mimic each paper dataset's shape
/// (density, feature width, class count, label regime, split fractions) at
/// CPU-tractable scale — see docs/ARCHITECTURE.md §1 for the substitution
/// rationale.
struct SyntheticSpec {
  std::string name = "synthetic";
  NodeId n = 10'000;
  EdgeId m = 200'000;
  int communities = 16;       // also the class count
  int num_classes = 16;       // <= communities; classes map onto communities
  std::int64_t feat_dim = 64;
  double p_intra = 0.9;
  double degree_skew = 2.5;
  double feature_noise = 1.0; // stddev of per-node Gaussian noise
  double feature_signal = 1.0;// scale of the class mean vectors
  double label_noise = 0.02;  // fraction of nodes with a random label
  bool multilabel = false;
  int labels_per_node = 3;    // for multilabel: avg positive labels
  double train_frac = 0.66, val_frac = 0.10; // rest is test
  std::uint64_t seed = 1;
};

inline constexpr auto kSyntheticSpecFields = [] {
  using S = SyntheticSpec;
  return std::tuple{field("name", &S::name),
                    field("n", &S::n),
                    field("m", &S::m),
                    field("communities", &S::communities),
                    field("num_classes", &S::num_classes),
                    field("feat_dim", &S::feat_dim),
                    field("p_intra", &S::p_intra),
                    field("degree_skew", &S::degree_skew),
                    field("feature_noise", &S::feature_noise),
                    field("feature_signal", &S::feature_signal),
                    field("label_noise", &S::label_noise),
                    field("multilabel", &S::multilabel),
                    field("labels_per_node", &S::labels_per_node),
                    field("train_frac", &S::train_frac),
                    field("val_frac", &S::val_frac),
                    field("seed", &S::seed)};
}();

/// Build a dataset from the degree-corrected planted-partition generator:
/// community structure drives both edges and labels; features are
/// class-mean + Gaussian noise so neighbor aggregation is informative.
[[nodiscard]] Dataset make_synthetic(const SyntheticSpec& spec);

/// Presets mirroring Table 3 of the paper at reduced scale. `scale`
/// multiplies node/edge counts (1.0 = the default bench size).
[[nodiscard]] SyntheticSpec reddit_like(double scale = 1.0);   // dense, 41 classes
[[nodiscard]] SyntheticSpec products_like(double scale = 1.0); // sparse, 47 classes
[[nodiscard]] SyntheticSpec yelp_like(double scale = 1.0);     // multilabel, 100 classes
[[nodiscard]] SyntheticSpec papers_like(double scale = 1.0);   // large, 172 classes

} // namespace bnsgcn
