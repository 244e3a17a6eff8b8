#include "api/presets.hpp"

#include "common/check.hpp"

namespace bnsgcn::api {

namespace {

/// Per-dataset training configs mirroring Section 4's models at bench scale
/// (layer count kept, hidden width and epochs reduced with the graphs).
core::TrainerConfig reddit_trainer() {
  core::TrainerConfig cfg;
  cfg.num_layers = 4; // paper: 4 layers, 256 hidden
  cfg.hidden = 64;
  // Paper uses dropout 0.5; at 1/10 scale with 64 hidden units that much
  // regularization stalls early training, so the bench uses 0.3.
  cfg.dropout = 0.3f;
  cfg.lr = 0.01f;
  cfg.epochs = 60;
  cfg.seed = 41;
  return cfg;
}

core::TrainerConfig products_trainer() {
  core::TrainerConfig cfg;
  cfg.num_layers = 3; // paper: 3 layers, 128 hidden
  cfg.hidden = 64;
  cfg.dropout = 0.3f;
  cfg.lr = 0.003f;
  cfg.epochs = 60;
  cfg.seed = 47;
  return cfg;
}

core::TrainerConfig yelp_trainer() {
  core::TrainerConfig cfg;
  cfg.num_layers = 4; // paper: 4 layers, 512 hidden
  cfg.hidden = 64;
  cfg.dropout = 0.1f;
  // Paper uses lr 1e-3 over 3000 epochs; bench budgets are ~100 epochs, so
  // the rate is raised accordingly (sparse-positive BCE stays all-negative
  // far longer at 1e-3).
  cfg.lr = 0.01f;
  cfg.epochs = 60;
  cfg.seed = 100;
  return cfg;
}

core::TrainerConfig papers_trainer() {
  core::TrainerConfig cfg;
  cfg.num_layers = 3; // paper: 3 layers, 128 hidden
  cfg.hidden = 48;
  cfg.dropout = 0.5f;
  cfg.lr = 0.01f;
  cfg.epochs = 10;
  cfg.seed = 172;
  return cfg;
}

} // namespace

const std::vector<DatasetPreset>& dataset_registry() {
  static const std::vector<DatasetPreset> presets = {
      {"reddit", "Reddit-like: dense power-law graph, 41 communities",
       &reddit_like, reddit_trainer()},
      {"products", "ogbn-products-like: sparse co-purchase graph, 47 classes",
       &products_like, products_trainer()},
      {"yelp", "Yelp-like: sparse graph, 100 binary labels (micro-F1)",
       &yelp_like, yelp_trainer()},
      {"papers", "ogbn-papers100M-like: the large-graph preset, 172 classes",
       &papers_like, papers_trainer()},
  };
  return presets;
}

const DatasetPreset* find_dataset(std::string_view name) {
  for (const auto& preset : dataset_registry())
    if (preset.name == name) return &preset;
  return nullptr;
}

core::TrainerConfig preset_trainer_config(std::string_view name) {
  const DatasetPreset* preset = find_dataset(name);
  BNSGCN_CHECK_MSG(preset != nullptr,
                   "unknown dataset preset: " + std::string(name));
  return preset->trainer;
}

Dataset make_dataset(const DatasetSpec& spec) {
  if (spec.custom) return make_synthetic(*spec.custom);
  const DatasetPreset* preset = find_dataset(spec.preset);
  BNSGCN_CHECK_MSG(preset != nullptr,
                   "unknown dataset preset: " + spec.preset);
  return make_synthetic(preset->make_spec(spec.scale));
}

} // namespace bnsgcn::api
