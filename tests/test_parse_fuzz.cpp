// Differential, seeded mutational fuzz of the line parsers against the
// std::istringstream parsers they replaced.
//
// circuit::read_netlist, core::sweep_spec::parse and core::parse_request
// split each line with support::token_reader.  The `oracle` namespace below
// keeps the per-line stream versions verbatim (minus the spec parser's
// stderr messages) as the reference.  Three properties:
//
//   (a) on well-formed input — random mult/adder specs, widths 3..8, PMFs
//       with zero, subnormal and %.17g edge masses, seed netlists decoded
//       from mutated genotypes — both parse the identical spec (same
//       write() bytes, same store_key());
//   (b) on seeded byte flips, truncations and token swaps of encoded
//       requests and netlists, the new parser never accepts what the
//       oracle rejects; when both accept they agree; and every input the
//       oracle accepts but the new parser rejects holds one of the token
//       classes src/core/README.md lists as rejected ("Token grammar");
//   (c) on seeded journals of the coordinator, server and store-index
//       grammars, mutated by those byte operators plus torn tails,
//       duplicated lines and CRLF, support::journal::replay hands over
//       exactly the bodies of the lines written intact (worked out by
//       comparing lines, not CRCs), and a result_store opened on a
//       mutated index maps exactly the last intact record per (kind, key).
//
// Everything is a pure function of the fixed seeds below: a failure
// reproduces by re-running the test.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <istream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "cgp/genotype.h"
#include "circuit/gate.h"
#include "circuit/serialize.h"
#include "core/result_server.h"
#include "core/result_store.h"
#include "core/shard_runner.h"
#include "dist/pmf.h"
#include "mult/adders.h"
#include "mult/multipliers.h"
#include "support/journal.h"
#include "support/rng.h"
#include "support/tokens.h"

namespace axc {
namespace oracle {

// ---- The stream parsers, as they were before token_reader -----------------

constexpr std::string_view kNetlistMagic = "axcirc-netlist v1";
constexpr std::size_t kMaxInterface = 1u << 20;

std::optional<circuit::netlist> read_netlist(std::istream& is) {
  using circuit::netlist;
  std::string line;
  if (!std::getline(is, line) || line != kNetlistMagic) return std::nullopt;

  std::size_t inputs = 0, outputs = 0;
  {
    std::string key;
    if (!std::getline(is, line)) return std::nullopt;
    std::istringstream ls(line);
    if (!(ls >> key >> inputs) || key != "inputs" || inputs == 0 ||
        inputs > kMaxInterface) {
      return std::nullopt;
    }
  }
  {
    std::string key;
    if (!std::getline(is, line)) return std::nullopt;
    std::istringstream ls(line);
    if (!(ls >> key >> outputs) || key != "outputs" || outputs == 0 ||
        outputs > kMaxInterface) {
      return std::nullopt;
    }
  }

  netlist nl(inputs, outputs);
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;  // blank line
    if (key == "gate") {
      std::string fn_name;
      std::uint32_t in0 = 0, in1 = 0;
      if (!(ls >> fn_name >> in0 >> in1)) return std::nullopt;
      const auto fn = circuit::gate_fn_from_name(fn_name);
      if (!fn) return std::nullopt;
      if (in0 >= nl.num_signals() || in1 >= nl.num_signals()) {
        return std::nullopt;
      }
      std::string extra;
      if (ls >> extra) return std::nullopt;  // trailing junk
      nl.add_gate(*fn, in0, in1);
    } else if (key == "out") {
      for (std::size_t o = 0; o < outputs; ++o) {
        std::uint32_t address = 0;
        if (!(ls >> address) || address >= nl.num_signals()) {
          return std::nullopt;
        }
        nl.set_output(o, address);
      }
      std::string extra;
      if (ls >> extra) return std::nullopt;  // trailing junk
      return nl;  // "out" terminates the record
    } else {
      return std::nullopt;
    }
  }
  return std::nullopt;  // missing "out" line
}

std::optional<core::sweep_spec> parse_spec(std::istream& is) {
  using core::sweep_spec;
  std::string line;
  if (!std::getline(is, line) || line != "axc-sweep-spec v2") {
    return std::nullopt;
  }

  sweep_spec spec;
  const auto read_field = [&is, &line](const char* key, auto& value) {
    if (!std::getline(is, line)) return false;
    std::istringstream ls(line);
    std::string k;
    return static_cast<bool>(ls >> k >> value) && k == key;
  };

  int flag = 0;
  if (!read_field("component", spec.component)) return std::nullopt;
  if (!read_field("width", spec.options.width)) return std::nullopt;
  if (!read_field("signed", flag)) return std::nullopt;
  spec.options.is_signed = flag != 0;
  if (!read_field("iterations", spec.options.iterations)) return std::nullopt;
  if (!read_field("extra-columns", spec.options.extra_columns)) {
    return std::nullopt;
  }
  if (!read_field("max-mutations", spec.options.max_mutations)) {
    return std::nullopt;
  }
  if (!read_field("lambda", spec.options.lambda)) return std::nullopt;
  if (!read_field("error-tiebreak", flag)) return std::nullopt;
  spec.options.error_tiebreak = flag != 0;
  if (!read_field("incremental", flag)) return std::nullopt;  // vestigial
  if (!read_field("rng-seed", spec.options.rng_seed)) return std::nullopt;

  {
    if (!std::getline(is, line)) return std::nullopt;
    std::istringstream ls(line);
    std::string k;
    std::size_t count = 0;
    if (!(ls >> k >> count) || k != "distribution" || count > (1u << 24)) {
      return std::nullopt;
    }
    std::vector<double> masses(count);
    double total = 0.0;
    for (double& mass : masses) {
      if (!(ls >> mass)) return std::nullopt;
      if (!std::isfinite(mass) || mass < 0.0) return std::nullopt;
      total += mass;
    }
    if (count > 0 && !(total > 0.0)) return std::nullopt;
    if (count > 0) spec.options.distribution = dist::pmf::from_masses(masses);
  }
  if (!read_field("runs-per-target", spec.plan.runs_per_target)) {
    return std::nullopt;
  }
  {
    if (!std::getline(is, line)) return std::nullopt;
    std::istringstream ls(line);
    std::string k;
    std::size_t count = 0;
    if (!(ls >> k >> count) || k != "targets" || count > (1u << 24)) {
      return std::nullopt;
    }
    spec.plan.targets.resize(count);
    for (double& target : spec.plan.targets) {
      if (!(ls >> target)) return std::nullopt;
    }
  }
  spec.options.runs_per_target = spec.plan.runs_per_target;

  if (!std::getline(is, line) || line != "seed-netlist") return std::nullopt;
  std::optional<circuit::netlist> seed = read_netlist(is);
  if (!seed) return std::nullopt;
  spec.seed = *std::move(seed);
  if (!std::getline(is, line) || line != "end") return std::nullopt;
  return spec;
}

std::optional<core::serve_request> parse_request(std::string_view text) {
  std::istringstream is{std::string(text)};
  std::string line;
  if (!std::getline(is, line) || line != "axc-serve v1") return std::nullopt;
  core::serve_request request;
  bool saw_verb = false;
  while (std::getline(is, line)) {
    if (line == "spec") {
      auto spec = parse_spec(is);
      if (!spec || !saw_verb) return std::nullopt;
      request.spec = *std::move(spec);
      return request;
    }
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag)) return std::nullopt;
    if (tag == "verb") {
      if (!(ls >> request.verb)) return std::nullopt;
      if (request.verb != "get" && request.verb != "status" &&
          request.verb != "wait" && request.verb != "table") {
        return std::nullopt;
      }
      saw_verb = true;
    } else if (tag == "budget") {
      double budget = 0.0;
      if (!(ls >> budget)) return std::nullopt;
      request.budget = budget;
    } else if (tag == "timeout-ms") {
      if (!(ls >> request.timeout_ms) || request.timeout_ms < 0) {
        return std::nullopt;
      }
    } else {
      return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace oracle

namespace {

// ---- Inputs ---------------------------------------------------------------

/// Silences stderr for its lifetime: the spec parser reports every
/// rejection there, and the fuzz loops reject thousands of inputs.
class quiet_stderr {
 public:
  quiet_stderr() {
    std::fflush(stderr);
    saved_ = ::dup(2);
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      ::dup2(null_fd, 2);
      ::close(null_fd);
    }
  }
  ~quiet_stderr() {
    std::fflush(stderr);
    if (saved_ >= 0) {
      ::dup2(saved_, 2);
      ::close(saved_);
    }
  }
  quiet_stderr(const quiet_stderr&) = delete;
  quiet_stderr& operator=(const quiet_stderr&) = delete;

 private:
  int saved_{-1};
};

/// Doubles whose %.17g text is a stress case for decimal conversion.
const std::vector<double>& edge_doubles() {
  static const std::vector<double> values = {
      0.0,
      std::numeric_limits<double>::denorm_min(),
      6.3e-322,
      2.2250738585072014e-308,  // smallest normal
      2.2250738585072009e-308,  // largest subnormal
      1e-300,
      1e-17,
      0.1,
      1.0 / 3.0,
      0.30000000000000004,
      1.0000000000000002,
      9007199254740993.0,
      123456789.12345679,
      1e300};
  return values;
}

/// A 2^w-mass distribution of one of several adversarial shapes, or the
/// empty (uniform) distribution.
dist::pmf random_pmf(rng& gen, unsigned width) {
  const std::size_t n = std::size_t{1} << width;
  std::vector<double> masses(n, 0.0);
  switch (gen.below(6)) {
    case 0:
      return {};
    case 1:
      return dist::pmf::half_normal(n, static_cast<double>(n) / 4);
    case 2:  // whole blocks without mass
      for (std::size_t a = 0; a < n; ++a) {
        masses[a] = (a / (n / 4)) % 2 == 1 ? 0.0 : static_cast<double>(a + 1);
      }
      break;
    case 3:  // subnormals beside normals
      for (std::size_t a = 0; a < n; ++a) {
        masses[a] = a % 3 == 0
                        ? std::numeric_limits<double>::denorm_min() *
                              static_cast<double>(gen.below(1000) + 1)
                        : 1.0 / static_cast<double>(a + 2);
      }
      break;
    case 4:  // %.17g edge values, and zeros
      for (double& mass : masses) {
        mass = edge_doubles()[gen.below(edge_doubles().size())];
      }
      masses[gen.below(n)] = 0.5;
      break;
    default:  // random bit patterns with exponents from subnormal to 2^900
      for (double& mass : masses) {
        const std::uint64_t exponent = gen.below(1024 + 900);
        const std::uint64_t mantissa = gen() >> 12;
        mass = gen.chance(0.1) ? 0.0
                               : std::bit_cast<double>(exponent << 52 |
                                                       mantissa);
      }
      masses[gen.below(n)] = 1.0;
      break;
  }
  return dist::pmf::from_masses(masses);
}

/// The component's exact seed, mutated a few times as a CGP genotype and
/// decoded back: netlists with inactive gates and rewired outputs.
circuit::netlist random_seed(rng& gen, const std::string& component,
                             unsigned width, bool is_signed) {
  const circuit::netlist exact =
      component == "adder" ? mult::ripple_adder(width)
      : is_signed          ? mult::signed_multiplier(width)
                           : mult::unsigned_multiplier(width);
  cgp::parameters params;
  params.num_inputs = exact.num_inputs();
  params.num_outputs = exact.num_outputs();
  params.columns = exact.num_gates() + gen.below(16);
  params.rows = 1;
  params.levels_back = params.columns;
  params.function_set.assign(circuit::default_function_set().begin(),
                             circuit::default_function_set().end());
  cgp::genotype genotype = cgp::genotype::from_netlist(params, exact, gen);
  const std::uint64_t mutations = gen.below(8);
  for (std::uint64_t m = 0; m < mutations; ++m) genotype.mutate(gen);
  return genotype.decode();
}

core::sweep_spec random_spec(rng& gen) {
  core::sweep_spec spec;
  spec.component = gen.chance(0.5) ? "mult" : "adder";
  spec.options.width = 3 + static_cast<unsigned>(gen.below(6));
  spec.options.is_signed = spec.component == "mult" && gen.chance(0.5);
  spec.options.distribution = random_pmf(gen, spec.options.width);
  spec.options.iterations = 1 + gen.below(1000000);
  spec.options.extra_columns = gen.below(200);
  spec.options.max_mutations = 1 + static_cast<unsigned>(gen.below(10));
  spec.options.lambda = 1 + gen.below(8);
  spec.options.error_tiebreak = gen.chance(0.5);
  (void)gen.chance(0.5);  // the retired incremental knob's draw
  spec.options.rng_seed = gen();
  spec.plan.runs_per_target = 1 + gen.below(4);
  spec.options.runs_per_target = spec.plan.runs_per_target;
  const std::uint64_t targets = 1 + gen.below(6);
  for (std::uint64_t t = 0; t < targets; ++t) {
    spec.plan.targets.push_back(
        gen.chance(0.3) ? std::min(1.0, edge_doubles()[gen.below(9)])
                        : gen.uniform01());
  }
  spec.seed = random_seed(gen, spec.component, spec.options.width,
                          spec.options.is_signed);
  return spec;
}

std::string spec_text(const core::sweep_spec& spec) {
  std::ostringstream os;
  spec.write(os);
  return os.str();
}

/// Same request: verb, budget bits, timeout and spec bytes.
bool same_request(const core::serve_request& a, const core::serve_request& b) {
  const auto budget_bits = [](const core::serve_request& r) {
    return r.budget ? std::optional(std::bit_cast<std::uint64_t>(*r.budget))
                    : std::nullopt;
  };
  return a.verb == b.verb && budget_bits(a) == budget_bits(b) &&
         a.timeout_ms == b.timeout_ms &&
         spec_text(a.spec) == spec_text(b.spec);
}

// ---- Mutations ------------------------------------------------------------

/// Tokens the stream parsers and token_reader may read differently.
const std::vector<std::string>& hostile_tokens() {
  static const std::vector<std::string> tokens = {
      "+1", "-1", "+0", "-0", "inf", "-inf", "nan", "0x1p3", "0X10", "1e-400",
      "1e400", "18446744073709551616", "4294967296", "-4294967292",
      "1.5abc", "12x", "1e", ".", "--1", "+-1", "++1", "+inf", "1.5.3",
      "1e5e5", "1-2", "0", "7",
      "0." + std::string(80, '0') + "1",  // over-long double token
      std::string(70, '9'),               // over-long integer token
      "get", "spec", "end", "out", "gate", "and"};
  return tokens;
}

struct token_span {
  std::size_t begin, end;
};

std::vector<token_span> token_spans(const std::string& text) {
  std::vector<token_span> spans;
  std::size_t i = 0;
  const auto space = [](char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  };
  while (i < text.size()) {
    while (i < text.size() && space(text[i])) ++i;
    const std::size_t begin = i;
    while (i < text.size() && !space(text[i])) ++i;
    if (i > begin) spans.push_back({begin, i});
  }
  return spans;
}

/// One to three seeded mutations: a byte flip (to a structural or random
/// byte), a truncation, a token replaced by a hostile one, two tokens
/// swapped, a hostile token inserted, or a token deleted.
std::string mutate(std::string text, rng& gen) {
  static constexpr char kBytes[] = {' ', '\n', '\t', '\r', '\v', '\0', '-',
                                    '+', '.', 'e', 'x', '0', '9'};
  const std::uint64_t rounds = 1 + gen.below(3);
  for (std::uint64_t r = 0; r < rounds && !text.empty(); ++r) {
    const auto spans = token_spans(text);
    const std::uint64_t op = gen.below(6);
    if (op == 0) {
      text[gen.below(text.size())] =
          gen.chance(0.5) ? kBytes[gen.below(sizeof kBytes)]
                          : static_cast<char>(gen.below(256));
    } else if (op == 1) {
      text.resize(gen.below(text.size()));
    } else if (spans.empty()) {
      continue;
    } else if (op == 2) {
      const token_span s = spans[gen.below(spans.size())];
      text.replace(s.begin, s.end - s.begin,
                   hostile_tokens()[gen.below(hostile_tokens().size())]);
    } else if (op == 3) {
      const token_span a = spans[gen.below(spans.size())];
      const token_span b = spans[gen.below(spans.size())];
      if (a.begin >= b.begin) continue;
      const std::string ta = text.substr(a.begin, a.end - a.begin);
      const std::string tb = text.substr(b.begin, b.end - b.begin);
      text.replace(b.begin, tb.size(), ta);  // later span first
      text.replace(a.begin, ta.size(), tb);
    } else if (op == 4) {
      const token_span s = spans[gen.below(spans.size())];
      text.insert(s.end,
                  " " + hostile_tokens()[gen.below(hostile_tokens().size())]);
    } else {
      const token_span s = spans[gen.below(spans.size())];
      text.erase(s.begin, s.end - s.begin);
    }
  }
  return text;
}

// ---- The rejected classes ---------------------------------------------------

enum class rejected_class {
  none,
  signed_integer,   ///< '+' on any integer, '-' on an unsigned one
  glued_suffix,     ///< a number followed by non-number characters
  long_double,      ///< a double token over kMaxDoubleToken characters
  trailing_tokens,  ///< tokens after a line's last field
};

bool is_digit(char c) { return c >= '0' && c <= '9'; }

bool any_of(std::string_view key,
            std::initializer_list<std::string_view> keys) {
  for (const std::string_view k : keys) {
    if (key == k) return true;
  }
  return false;
}

/// The class of an integer-field token the stream read but token_reader
/// rejects: a sign before digits, or digits with something glued on.
rejected_class integer_class(std::string_view t, bool is_signed) {
  support::token_reader r(t);
  bool ok = false;
  if (is_signed) {
    std::int64_t v = 0;
    ok = static_cast<bool>(r >> v);
  } else {
    std::uint64_t v = 0;
    ok = static_cast<bool>(r >> v);
  }
  if (ok) return rejected_class::none;
  const bool sign = t[0] == '+' || t[0] == '-';
  const std::string_view body = sign ? t.substr(1) : t;
  if (body.empty() || !is_digit(body[0])) return rejected_class::none;
  if (body.find_first_not_of("0123456789") == std::string_view::npos) {
    return sign ? rejected_class::signed_integer : rejected_class::none;
  }
  return rejected_class::glued_suffix;
}

/// The class of a double-field token token_reader rejects.
rejected_class double_class(std::string_view t) {
  support::token_reader r(t);
  double v = 0.0;
  if (r >> v) return rejected_class::none;
  return t.size() > support::token_reader::kMaxDoubleToken
             ? rejected_class::long_double
             : rejected_class::glued_suffix;
}

/// The first README-listed class a token or line of `text` falls in, read
/// position by position with each line's grammar (unknown lines are
/// skipped), or none.  Every input the oracle accepts and the new parsers
/// reject must name one: the new parsers split tokens exactly here, so the
/// first token they refuse is a token this walk inspects.
rejected_class classify(const std::string& text) {
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    support::token_reader reader(
        std::string_view(text.data() + begin, end - begin));
    begin = end + 1;

    std::vector<std::string_view> tokens;
    for (std::string_view t = reader.next(); !t.empty(); t = reader.next()) {
      tokens.push_back(t);
    }
    if (tokens.empty()) continue;
    const std::string_view key = tokens[0];
    std::vector<rejected_class> found;
    std::size_t fields = 0;  // tokens the line's grammar reads
    if (any_of(key, {"width", "iterations", "extra-columns", "max-mutations",
                     "lambda", "rng-seed", "runs-per-target", "inputs",
                     "outputs"})) {
      fields = 2;
      if (tokens.size() > 1) found.push_back(integer_class(tokens[1], false));
    } else if (any_of(key, {"signed", "error-tiebreak", "incremental",
                            "timeout-ms"})) {
      fields = 2;
      if (tokens.size() > 1) found.push_back(integer_class(tokens[1], true));
    } else if (any_of(key, {"component", "verb"})) {
      fields = 2;
    } else if (key == "budget") {
      fields = 2;
      if (tokens.size() > 1) found.push_back(double_class(tokens[1]));
    } else if (key == "distribution" || key == "targets") {
      if (tokens.size() > 1) {
        found.push_back(integer_class(tokens[1], false));
        support::token_reader r(tokens[1]);
        std::size_t count = 0;
        fields = (r >> count) ? 2 + count : tokens.size();
        for (std::size_t i = 2; i < tokens.size() && i < fields; ++i) {
          found.push_back(double_class(tokens[i]));
        }
      }
    } else if (key == "gate") {
      for (std::size_t i = 2; i < tokens.size() && i < 4; ++i) {
        found.push_back(integer_class(tokens[i], false));
      }
    } else if (key == "out") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        found.push_back(integer_class(tokens[i], false));
      }
    }
    if (fields > 0 && tokens.size() > fields) {
      found.push_back(rejected_class::trailing_tokens);
    }
    for (const rejected_class c : found) {
      if (c != rejected_class::none) return c;
    }
  }
  return rejected_class::none;
}

// ---- Tests ----------------------------------------------------------------

TEST(parse_fuzz, well_formed_specs_parse_identically) {
  quiet_stderr quiet;
  rng gen(0x19A5EED);
  for (int i = 0; i < 500; ++i) {
    const core::sweep_spec spec = random_spec(gen);
    ASSERT_TRUE(spec.validate().empty()) << i << ": " << spec.validate();
    const std::string text = spec_text(spec);

    std::istringstream a(text), b(text);
    const auto parsed = core::sweep_spec::parse(a);
    const auto expected = oracle::parse_spec(b);
    ASSERT_TRUE(expected.has_value()) << i;
    ASSERT_TRUE(parsed.has_value()) << i << "\n" << text;
    EXPECT_EQ(spec_text(*parsed), spec_text(*expected)) << i;
    EXPECT_EQ(spec_text(*parsed), text) << i;  // and the format round-trips
    EXPECT_EQ(parsed->store_key(), expected->store_key()) << i;
    EXPECT_EQ(parsed->store_key(), spec.store_key()) << i;

    // The same spec as a request, with every header line.
    core::serve_request request;
    request.verb = gen.chance(0.5) ? "get" : "wait";
    if (gen.chance(0.5)) {
      request.budget = edge_doubles()[gen.below(edge_doubles().size())];
    }
    request.timeout_ms = static_cast<std::int64_t>(gen.below(1u << 31));
    request.spec = spec;
    const std::string encoded = core::encode_request(request);
    const auto got = core::parse_request(encoded);
    const auto want = oracle::parse_request(encoded);
    ASSERT_TRUE(got.has_value() && want.has_value()) << i;
    EXPECT_TRUE(same_request(*got, *want)) << i;
  }
}

TEST(parse_fuzz, mutated_requests_never_mis_accept) {
  quiet_stderr quiet;
  rng gen(0xF022);
  std::vector<std::string> bases;
  for (int i = 0; i < 12; ++i) {
    core::serve_request request;
    request.verb = i % 3 == 0 ? "status" : "get";
    if (i % 2 == 0) request.budget = gen.uniform01();
    request.spec = random_spec(gen);
    bases.push_back(core::encode_request(request));
  }

  std::size_t both_accept = 0, both_reject = 0;
  std::size_t stricter[5] = {};
  constexpr int kCases = 6000;
  for (int i = 0; i < kCases; ++i) {
    const std::string& base = bases[gen.below(bases.size())];
    const std::string input = mutate(base, gen);
    const auto got = core::parse_request(input);
    const auto want = oracle::parse_request(input);
    if (got && !want) {
      ADD_FAILURE() << "case " << i << ": accepted what the oracle rejects\n"
                    << input;
    } else if (got && want) {
      ++both_accept;
      EXPECT_TRUE(same_request(*got, *want)) << "case " << i << "\n" << input;
      if (got->spec.validate().empty() && want->spec.validate().empty()) {
        EXPECT_EQ(got->spec.store_key(), want->spec.store_key()) << i;
      }
    } else if (!got && want) {
      const rejected_class c = classify(input);
      EXPECT_NE(c, rejected_class::none)
          << "case " << i << ": rejected outside the listed classes\n"
          << input;
      ++stricter[static_cast<int>(c)];
    } else {
      ++both_reject;
    }
  }
  // The corpus must exercise every outcome, or the loop proves nothing.
  EXPECT_GT(both_accept, 50u);
  EXPECT_GT(both_reject, 1000u);
  for (int c = 1; c < 5; ++c) {
    EXPECT_GT(stricter[c], 0u) << "class " << c << " never exercised";
  }
  std::printf("both accept %zu, both reject %zu, stricter: signed %zu, "
              "glued %zu, long %zu, trailing %zu\n",
              both_accept, both_reject, stricter[1], stricter[2], stricter[3],
              stricter[4]);
}

TEST(parse_fuzz, mutated_netlists_parse_identically_and_stop_at_out) {
  rng gen(0x0E71);
  constexpr int kCases = 4000;
  std::size_t both_accept = 0;
  for (int i = 0; i < kCases; ++i) {
    const unsigned width = 3 + static_cast<unsigned>(gen.below(4));
    const std::string text =
        circuit::to_text(random_seed(gen, gen.chance(0.5) ? "mult" : "adder",
                                     width, gen.chance(0.5))) +
        "end\n";
    const std::string input = mutate(text, gen);
    std::istringstream a(input), b(input);
    const auto got = circuit::read_netlist(a);
    const auto want = oracle::read_netlist(b);
    if (got && !want) {
      ADD_FAILURE() << "case " << i << ": accepted what the oracle rejects\n"
                    << input;
    } else if (got && want) {
      ++both_accept;
      EXPECT_EQ(*got, *want) << "case " << i;
      // Both leave the stream just past the `out` line.
      const std::string rest_a(std::istreambuf_iterator<char>(a), {});
      const std::string rest_b(std::istreambuf_iterator<char>(b), {});
      EXPECT_EQ(rest_a, rest_b) << "case " << i;
    } else if (!got && want) {
      EXPECT_NE(classify(input), rejected_class::none)
          << "case " << i << ": rejected outside the listed classes\n"
          << input;
    }
  }
  EXPECT_GT(both_accept, 100u);
}

// ---- Journals ---------------------------------------------------------------

/// A seeded journal of one grammar: its header body and record bodies.
struct journal_corpus {
  std::string header;
  std::vector<std::string> records;
};

enum journal_grammar { coordinator, server, store_index };

journal_corpus random_journal(rng& gen, journal_grammar grammar) {
  static constexpr const char* kNodes[] = {"local", "fast-box", "slow-box"};
  static constexpr const char* kKinds[] = {"session", "table", "front"};
  static constexpr const char* kWhy[] = {"exit42", "torn",  "dead",
                                         "superseded", "drain", "launch"};
  static constexpr const char* kHow[] = {"ok", "torn", "fail"};
  // Few distinct keys and shards, so later records overwrite earlier ones.
  const auto key = [&gen] {
    return support::hex16(gen.below(5) * 0x9e3779b97f4a7c15ULL);
  };
  const auto pick = [&gen](const auto& options) {
    return std::string(options[gen.below(std::size(options))]);
  };
  journal_corpus j;
  const std::uint64_t records = gen.below(24);
  for (std::uint64_t i = 0; i < records; ++i) {
    const std::string shard = std::to_string(gen.below(4));
    std::string body;
    if (grammar == coordinator) {
      switch (gen.below(8)) {
        case 0:
          body = "spawn " + shard + " " + std::to_string(1 + gen.below(3));
          break;
        case 1:
          body = "lease " + shard + " " + pick(kNodes) + " " +
                 (gen.chance(0.3) ? "spec" : std::to_string(1 + gen.below(3)));
          break;
        case 2:
          body = "fetch " + shard + " " + pick(kNodes) + " " + pick(kHow);
          break;
        case 3:
          body = "release " + shard + " " + pick(kNodes) + " " + pick(kWhy);
          break;
        case 4:
          body = "complete " + shard;
          break;
        case 5:
          body = "fail " + shard + " 42";
          break;
        case 6:
          body = "publish " + pick(kKinds) + " " + key() + " " +
                 support::hex16(gen());
          break;
        default:
          body = "done";
          break;
      }
    } else if (grammar == server) {
      body = pick(std::array{"enqueue", "done", "fail"}) + " " + key();
    } else {
      body = "put " + pick(kKinds) + " " + key() + " " +
             support::hex16(gen()) + " " + std::to_string(gen.below(100000)) +
             " " + support::hex8(static_cast<std::uint32_t>(gen()));
    }
    j.records.push_back(std::move(body));
  }
  j.header = grammar == coordinator ? "coord v1 key " + support::hex16(gen())
             : grammar == server    ? "serve v1"
                                    : "axc-store-index v1";
  return j;
}

std::string journal_text(const journal_corpus& j) {
  std::string text = support::journal::encode(j.header);
  for (const std::string& body : j.records) {
    text += support::journal::encode(body);
  }
  return text;
}

/// Start offsets of the complete lines of `text`.
std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts;
  for (std::size_t at = 0, nl; (nl = text.find('\n', at)) != text.npos;
       at = nl + 1) {
    starts.push_back(at);
  }
  return starts;
}

/// One to three seeded mutations: the byte flips, truncations and token
/// edits of mutate(), a torn tail followed by a whole written record (the
/// shape an append after a power loss leaves), a duplicated line, or a
/// '\n' turned into CRLF.
std::string mutate_journal(std::string text, const journal_corpus& j,
                           rng& gen) {
  const std::uint64_t rounds = 1 + gen.below(3);
  for (std::uint64_t r = 0; r < rounds && !text.empty(); ++r) {
    const std::vector<std::size_t> starts = line_starts(text);
    const std::uint64_t op = gen.below(4);
    if (op == 0 || starts.empty()) {
      text = mutate(std::move(text), gen);
    } else if (op == 1) {
      text.resize(gen.below(text.size()));
      if (gen.chance(0.7)) {
        const std::size_t pick = gen.below(j.records.size() + 1);
        if (!text.empty() && text.back() != '\n') text += '\n';
        text += support::journal::encode(
            pick == j.records.size() ? j.header : j.records[pick]);
      }
    } else if (op == 2) {
      const std::size_t from = starts[gen.below(starts.size())];
      const std::string line =
          text.substr(from, text.find('\n', from) + 1 - from);
      text.insert(starts[gen.below(starts.size())], line);
    } else {
      const std::size_t at = starts[gen.below(starts.size())];
      text.insert(text.find('\n', at), "\r");
    }
  }
  return text;
}

/// What a replay of `text` must hand over, worked out without any CRC: the
/// bodies of its complete lines that are byte-identical to a line the
/// corpus wrote (header included), in order, when its first line is the
/// header; nullopt when it is not.
std::optional<std::vector<std::string>> intact_bodies(
    const std::string& text, const journal_corpus& j) {
  std::map<std::string, std::string> written;
  written.emplace(support::journal::encode(j.header), j.header);
  for (const std::string& body : j.records) {
    written.emplace(support::journal::encode(body), body);
  }
  const std::vector<std::size_t> starts = line_starts(text);
  const auto line_at = [&](std::size_t i) {
    return text.substr(starts[i], text.find('\n', starts[i]) + 1 - starts[i]);
  };
  if (starts.empty() || line_at(0) != support::journal::encode(j.header)) {
    return std::nullopt;
  }
  std::vector<std::string> bodies;
  for (std::size_t i = 1; i < starts.size(); ++i) {
    const auto hit = written.find(line_at(i));
    if (hit != written.end()) bodies.push_back(hit->second);
  }
  return bodies;
}

TEST(parse_fuzz, mutated_journals_replay_exactly_their_intact_lines) {
  rng gen(0x10C4A1);
  constexpr int kCases = 6000;
  std::size_t foreign = 0, salvaged = 0, clean = 0;
  for (int i = 0; i < kCases; ++i) {
    const auto grammar = static_cast<journal_grammar>(i % 3);
    const journal_corpus j = random_journal(gen, grammar);
    const std::string input = mutate_journal(journal_text(j), j, gen);
    std::vector<std::string> got;
    const auto replayed = support::journal::replay(
        input, j.header,
        [&](std::string_view body) { got.emplace_back(body); });
    const auto want = intact_bodies(input, j);
    ASSERT_EQ(replayed.has_value(), want.has_value())
        << "case " << i << "\n" << input;
    if (!replayed) {
      ++foreign;
      continue;
    }
    EXPECT_EQ(got, *want) << "case " << i << "\n" << input;
    // The consumed prefix ends at the last newline; the tail never counts.
    EXPECT_EQ(replayed->end, input.rfind('\n') + 1) << "case " << i;
    EXPECT_EQ(replayed->last_line, line_starts(input).back()) << "case " << i;
    ++(replayed->damaged ? salvaged : clean);
  }
  // The corpus must exercise every outcome, or the loop proves nothing.
  EXPECT_GT(foreign, 100u);
  EXPECT_GT(salvaged, 500u);
  EXPECT_GT(clean, 100u);
  std::printf("foreign %zu, salvaged %zu, clean %zu\n", foreign, salvaged,
              clean);
}

TEST(parse_fuzz, a_store_opened_on_a_mutated_index_maps_only_intact_records) {
  rng gen(0x570BE);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("axc-fuzz-store-" + std::to_string(::getpid()));
  constexpr int kCases = 1000;
  std::size_t mapped = 0;
  for (int i = 0; i < kCases; ++i) {
    const journal_corpus j = random_journal(gen, store_index);
    const std::string input = mutate_journal(journal_text(j), j, gen);
    // No objects: a foreign index rebuilds to an empty store.
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    {
      std::ofstream os(dir / "index.axc", std::ios::binary);
      os << input;
    }
    // Later records win per (kind, key); the header may be duplicated
    // into the records, where it is no `put` and maps nothing.
    std::map<std::pair<std::string, std::string>, std::string> want;
    for (const std::string& body :
         intact_bodies(input, j).value_or(std::vector<std::string>{})) {
      support::token_reader r(body);
      std::string tag, kind, key;
      if (r >> tag >> kind >> key && tag == "put") want[{kind, key}] = body;
    }
    const auto store = core::result_store::open(dir.string());
    ASSERT_TRUE(store.has_value()) << "case " << i;
    std::map<std::pair<std::string, std::string>, std::string> got;
    for (const core::store_entry& e : store->entries()) {
      got[{e.kind, e.key}] = "put " + e.kind + " " + e.key + " " +
                             support::hex16(e.hash) + " " +
                             std::to_string(e.size) + " " +
                             support::hex8(e.payload_crc);
    }
    EXPECT_EQ(got, want) << "case " << i << "\n" << input;
    mapped += got.size();
  }
  EXPECT_GT(mapped, 2000u);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace axc
