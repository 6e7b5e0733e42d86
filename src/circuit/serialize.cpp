#include "circuit/serialize.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "support/tokens.h"

namespace axc::circuit {

namespace {
constexpr std::string_view kMagic = "axcirc-netlist v1";
/// Interface-size ceiling for parsed netlists.  Checkpoint salvage feeds
/// arbitrary corrupted bytes through this parser, and "inputs 99999999999"
/// would otherwise make the netlist constructor attempt that allocation;
/// it must fail cleanly instead.  Generous: real components are 2*width
/// inputs wide.
constexpr std::size_t kMaxInterface = 1u << 20;
}

std::optional<gate_fn> gate_fn_from_name(std::string_view name) {
  for (const gate_fn fn : full_function_set()) {
    if (gate_name(fn) == name) return fn;
  }
  return std::nullopt;
}

void write_netlist(std::ostream& os, const netlist& nl) {
  os << kMagic << "\n";
  os << "inputs " << nl.num_inputs() << "\n";
  os << "outputs " << nl.num_outputs() << "\n";
  for (const gate_node& g : nl.gates()) {
    os << "gate " << gate_name(g.fn) << " " << g.in0 << " " << g.in1 << "\n";
  }
  os << "out";
  for (const std::uint32_t o : nl.outputs()) os << " " << o;
  os << "\n";
}

std::optional<netlist> read_netlist(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kMagic) return std::nullopt;

  std::size_t inputs = 0, outputs = 0;
  {
    std::string_view key;
    if (!std::getline(is, line)) return std::nullopt;
    support::token_reader ls(line);
    if (!(ls >> key >> inputs) || key != "inputs" || inputs == 0 ||
        inputs > kMaxInterface || !ls.at_end()) {
      return std::nullopt;
    }
  }
  {
    std::string_view key;
    if (!std::getline(is, line)) return std::nullopt;
    support::token_reader ls(line);
    if (!(ls >> key >> outputs) || key != "outputs" || outputs == 0 ||
        outputs > kMaxInterface || !ls.at_end()) {
      return std::nullopt;
    }
  }

  netlist nl(inputs, outputs);
  while (std::getline(is, line)) {
    support::token_reader ls(line);
    const std::string_view key = ls.next();
    if (key.empty()) continue;  // blank line
    if (key == "gate") {
      std::string_view fn_name;
      std::uint32_t in0 = 0, in1 = 0;
      if (!(ls >> fn_name >> in0 >> in1)) return std::nullopt;
      const auto fn = gate_fn_from_name(fn_name);
      if (!fn) return std::nullopt;
      if (in0 >= nl.num_signals() || in1 >= nl.num_signals()) {
        return std::nullopt;
      }
      if (!ls.at_end()) return std::nullopt;  // trailing junk
      nl.add_gate(*fn, in0, in1);
    } else if (key == "out") {
      for (std::size_t o = 0; o < outputs; ++o) {
        std::uint32_t address = 0;
        if (!(ls >> address) || address >= nl.num_signals()) {
          return std::nullopt;
        }
        nl.set_output(o, address);
      }
      if (!ls.at_end()) return std::nullopt;  // trailing junk
      return nl;  // "out" terminates the record
    } else {
      return std::nullopt;
    }
  }
  return std::nullopt;  // missing "out" line
}

std::string to_text(const netlist& nl) {
  std::ostringstream os;
  write_netlist(os, nl);
  return os.str();
}

std::optional<netlist> from_text(const std::string& text) {
  std::istringstream is(text);
  return read_netlist(is);
}

}  // namespace axc::circuit
