// Plain-text netlist serialization.
//
// A stable, human-diffable format used to cache evolved designs between
// benchmark runs and to ship example circuits:
//
//   axcirc-netlist v1
//   inputs 16
//   outputs 16
//   gate <fn-name> <in0> <in1>     (one line per gate, topological order)
//   out <address> ...              (one line, num_outputs addresses)
//
// Round-trips exactly (structure, not just function).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "circuit/netlist.h"

namespace axc::circuit {

void write_netlist(std::ostream& os, const netlist& nl);

/// Returns std::nullopt on malformed input (wrong magic, bad addresses,
/// unknown gate names, truncated stream).  Lines are read with
/// std::getline and split by support::token_reader: counts and addresses
/// are unsigned decimal tokens (a sign or a glued suffix is damage), and a
/// line with tokens after its last field is damage.  Blank lines between
/// gates are skipped; the stream is left just past the `out` line.
std::optional<netlist> read_netlist(std::istream& is);

std::string to_text(const netlist& nl);
std::optional<netlist> from_text(const std::string& text);

/// Parses a gate name as printed by gate_name(); nullopt if unknown.
std::optional<gate_fn> gate_fn_from_name(std::string_view name);

}  // namespace axc::circuit
