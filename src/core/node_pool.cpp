#include "core/node_pool.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <sstream>

namespace axc::core {
namespace {

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

/// Backoff growth per consecutive failure (policy.backoff is the first).
constexpr double kBackoffFactor = 2.0;

std::chrono::milliseconds scaled(std::chrono::milliseconds base,
                                 double factor, std::size_t exponent) {
  const double scale = std::pow(factor, static_cast<double>(exponent));
  return std::chrono::milliseconds(
      static_cast<std::int64_t>(static_cast<double>(base.count()) * scale));
}

}  // namespace

std::optional<std::vector<node_config>> parse_nodes(std::istream& in) {
  std::vector<node_config> nodes;
  std::string line;
  bool saw_header = false;
  bool in_block = false;
  node_config current;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::vector<std::string> tokens = split_tokens(line);
    if (!saw_header) {
      if (tokens.size() != 2 || tokens[0] != "axc-nodes" || tokens[1] != "v1") {
        return std::nullopt;
      }
      saw_header = true;
      continue;
    }
    const std::string& key = tokens[0];
    if (key == "node") {
      if (in_block || tokens.size() != 2) return std::nullopt;
      for (const node_config& n : nodes) {
        if (n.name == tokens[1]) return std::nullopt;  // duplicate name
      }
      current = node_config{};
      current.name = tokens[1];
      in_block = true;
      continue;
    }
    if (!in_block) return std::nullopt;
    if (key == "end") {
      if (tokens.size() != 1) return std::nullopt;
      nodes.push_back(std::move(current));
      in_block = false;
    } else if (key == "host" && tokens.size() == 2) {
      current.host = tokens[1];
    } else if (key == "slots" && tokens.size() == 2) {
      std::size_t pos = 0;
      unsigned long v = 0;
      try {
        v = std::stoul(tokens[1], &pos);
      } catch (...) {
        return std::nullopt;
      }
      if (pos != tokens[1].size() || v == 0) return std::nullopt;
      current.slots = static_cast<std::size_t>(v);
    } else if (key == "workdir" && tokens.size() == 2) {
      current.workdir = tokens[1];
    } else if (key == "worker" && tokens.size() == 2) {
      current.worker = tokens[1];
    } else if (key == "run" && tokens.size() >= 2) {
      current.tpl.run.assign(tokens.begin() + 1, tokens.end());
    } else if (key == "fetch" && tokens.size() >= 2) {
      current.tpl.fetch.assign(tokens.begin() + 1, tokens.end());
    } else if (key == "push" && tokens.size() >= 2) {
      current.tpl.push.assign(tokens.begin() + 1, tokens.end());
    } else {
      return std::nullopt;
    }
  }
  if (!saw_header || in_block || nodes.empty()) return std::nullopt;
  return nodes;
}

std::optional<std::vector<node_config>> parse_nodes_file(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return parse_nodes(in);
}

node_pool::node_pool(std::vector<node_config> nodes, node_policy policy)
    : policy_(policy) {
  states_.reserve(nodes.size());
  for (node_config& n : nodes) {
    state s;
    s.config = std::move(n);
    states_.push_back(std::move(s));
  }
}

bool node_pool::eligible(const state& s, clock::time_point now) const {
  if (s.active >= s.config.slots) return false;
  // A probation node proves itself one lease at a time.
  if (s.probation && s.active > 0) return false;
  switch (s.health) {
    case node_health::healthy:
      return true;
    case node_health::backing_off:
    case node_health::quarantined:
      return now >= s.available_at;
  }
  return false;
}

std::optional<std::size_t> node_pool::acquire(
    clock::time_point now, const std::vector<std::size_t>& avoid) {
  auto pick = [&](bool skip_avoided) -> std::optional<std::size_t> {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < states_.size(); ++i) {
      if (skip_avoided &&
          std::find(avoid.begin(), avoid.end(), i) != avoid.end()) {
        continue;
      }
      if (!eligible(states_[i], now)) continue;
      if (!best || states_[i].active < states_[*best].active) best = i;
    }
    return best;
  };
  std::optional<std::size_t> chosen = pick(true);
  if (!chosen) chosen = pick(false);
  if (!chosen) return std::nullopt;
  state& s = states_[*chosen];
  if (s.health == node_health::quarantined) s.probation = true;
  ++s.active;
  ++s.launches;
  return chosen;
}

void node_pool::release(std::size_t node) {
  state& s = states_[node];
  if (s.active > 0) --s.active;
}

void node_pool::release_success(std::size_t node) {
  state& s = states_[node];
  if (s.active > 0) --s.active;
  s.consecutive = 0;
  s.probation = false;
  s.health = node_health::healthy;
}

void node_pool::release_failure(std::size_t node, clock::time_point now) {
  state& s = states_[node];
  if (s.active > 0) --s.active;
  ++s.failures;
  ++s.consecutive;
  if (s.probation || s.consecutive >= policy_.quarantine_after) {
    // A failed probation lease — or enough consecutive failures — sends
    // the node (back) to quarantine with an escalating delay.
    s.health = node_health::quarantined;
    s.probation = false;
    ++s.quarantines;
    s.available_at = now + scaled(policy_.reprobation,
                                  policy_.reprobation_factor,
                                  s.quarantines - 1);
    return;
  }
  s.health = node_health::backing_off;
  s.available_at =
      now + scaled(policy_.backoff, kBackoffFactor, s.consecutive - 1);
}

void node_pool::mark_dead(std::size_t node, clock::time_point now) {
  state& s = states_[node];
  ++s.failures;
  s.consecutive = std::max(s.consecutive + 1, policy_.quarantine_after);
  s.health = node_health::quarantined;
  s.probation = false;
  ++s.quarantines;
  s.available_at = now + scaled(policy_.reprobation,
                                policy_.reprobation_factor,
                                s.quarantines - 1);
}

node_status node_pool::status(std::size_t node) const {
  const state& s = states_[node];
  return node_status{s.config.name, s.health,    s.active,
                     s.launches,    s.failures,  s.consecutive,
                     s.quarantines, s.probation};
}

std::vector<node_status> node_pool::report() const {
  std::vector<node_status> out;
  out.reserve(states_.size());
  for (std::size_t i = 0; i < states_.size(); ++i) {
    out.push_back(status(i));
  }
  return out;
}

std::optional<node_pool::clock::time_point> node_pool::next_eligible(
    clock::time_point now) const {
  std::optional<clock::time_point> earliest;
  for (const state& s : states_) {
    if (eligible(s, now)) return std::nullopt;  // someone is ready now
    if (s.active >= s.config.slots) continue;   // waiting on a release
    if (s.probation && s.active > 0) continue;
    if (s.health == node_health::healthy) continue;
    if (!earliest || s.available_at < *earliest) earliest = s.available_at;
  }
  return earliest;
}

}  // namespace axc::core
