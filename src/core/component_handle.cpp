#include "core/component_handle.h"

#include <algorithm>

namespace axc::core {

namespace {

template <metrics::component_spec Spec>
basic_approximation_config<Spec> config_from_options(
    Spec spec, const component_options& options) {
  basic_approximation_config<Spec> config;
  config.spec = spec;
  config.distribution = options.distribution;
  config.iterations = options.iterations;
  config.runs_per_target = options.runs_per_target;
  config.extra_columns = options.extra_columns;
  config.max_mutations = options.max_mutations;
  config.lambda = options.lambda;
  config.error_tiebreak = options.error_tiebreak;
  config.rng_seed = options.rng_seed;
  config.library = options.library;
  return config;
}

}  // namespace

component_registry& component_registry::instance() {
  static component_registry registry;
  return registry;
}

component_registry::component_registry() {
  factories_.emplace_back("mult", [](const component_options& options) {
    return make_component(config_from_options(
        metrics::mult_spec{options.width, options.is_signed}, options));
  });
  factories_.emplace_back("adder", [](const component_options& options) {
    return make_component(config_from_options(
        metrics::adder_spec{options.width}, options));
  });
}

void component_registry::register_component(std::string name, factory make) {
  std::scoped_lock lock(mutex_);
  const auto it = std::find_if(
      factories_.begin(), factories_.end(),
      [&name](const auto& entry) { return entry.first == name; });
  if (it != factories_.end()) {
    it->second = std::move(make);
    return;
  }
  factories_.emplace_back(std::move(name), std::move(make));
}

component_handle component_registry::make(
    const std::string& name, const component_options& options) const {
  factory found;
  {
    std::scoped_lock lock(mutex_);
    const auto it = std::find_if(
        factories_.begin(), factories_.end(),
        [&name](const auto& entry) { return entry.first == name; });
    if (it == factories_.end()) return {};
    found = it->second;
  }
  // Build outside the lock: factories run finalize_config and may be slow.
  return found(options);
}

std::vector<std::string> component_registry::names() const {
  std::scoped_lock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, make] : factories_) names.push_back(name);
  return names;
}

}  // namespace axc::core
