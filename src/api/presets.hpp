#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/trainer.hpp"
#include "graph/dataset.hpp"

namespace bnsgcn::api {

/// Library-level dataset registry entry: a synthetic-generator preset
/// mirroring one of the paper's Table 3 datasets, paired with the Section 4
/// training hyperparameters at bench scale. Benches, examples and tests
/// all draw from here instead of duplicating the numbers.
struct DatasetPreset {
  std::string name;         // "reddit", "products", "yelp", "papers"
  std::string description;
  SyntheticSpec (*make_spec)(double scale) = nullptr;
  core::TrainerConfig trainer;  // per-dataset model/optimizer config
};

/// The fixed preset table.
[[nodiscard]] const std::vector<DatasetPreset>& dataset_registry();
/// The preset named `name`, or nullptr.
[[nodiscard]] const DatasetPreset* find_dataset(std::string_view name);

/// The registered per-dataset TrainerConfig (throws on unknown name).
[[nodiscard]] core::TrainerConfig preset_trainer_config(std::string_view name);

/// What dataset a run is over: a registry preset at some scale, or an
/// explicit generator spec.
struct DatasetSpec {
  std::string preset;  // registry name; ignored when `custom` is set
  double scale = 1.0;  // preset size multiplier
  std::optional<SyntheticSpec> custom;
};

/// Materialize the spec (throws on unknown preset name).
[[nodiscard]] Dataset make_dataset(const DatasetSpec& spec);

} // namespace bnsgcn::api
