#include "obs/vcd.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>

#include "common/error.h"
#include "common/parse.h"

namespace tmsim::obs {

namespace {

// Bits of a BitVector as a VCD vector string, MSB first.
std::string to_bits(const BitVector& v) {
  std::string out(v.width(), '0');
  for (std::size_t i = 0; i < v.width(); ++i) {
    if (v.get_bit(i)) {
      out[v.width() - 1 - i] = '1';
    }
  }
  return out;
}

std::string u64_bits(std::uint64_t v, std::size_t width) {
  std::string out(width, '0');
  for (std::size_t i = 0; i < width; ++i) {
    if ((v >> i) & 1u) {
      out[width - 1 - i] = '1';
    }
  }
  return out;
}

}  // namespace

VcdWriter::VcdWriter(std::ostream& os) : os_(os) {}

std::string VcdWriter::id_code(std::size_t index) {
  // Printable ASCII '!'..'~' (94 symbols), little-endian base-94 — the
  // conventional VCD identifier alphabet.
  std::string code;
  do {
    code.push_back(static_cast<char>('!' + index % 94));
    index /= 94;
  } while (index != 0);
  return code;
}

VcdWriter::SignalId VcdWriter::add_signal(const std::string& name,
                                          std::size_t width) {
  TMSIM_CHECK_MSG(!header_written_, "add_signal after write_header");
  TMSIM_CHECK_MSG(width >= 1, "VCD signal width must be >= 1");
  std::string clean = name;
  for (char& c : clean) {
    if (c == ' ' || c == '\t') {
      c = '_';
    }
  }
  signals_.push_back(Signal{clean, width, id_code(signals_.size()), ""});
  return signals_.size() - 1;
}

void VcdWriter::write_header() {
  TMSIM_CHECK_MSG(!header_written_, "write_header called twice");
  header_written_ = true;
  os_ << "$date\n    tmsim run\n$end\n";
  os_ << "$version\n    tmsim VcdWriter\n$end\n";
  os_ << "$timescale 1 ns $end\n";
  os_ << "$scope module tmsim $end\n";
  for (const Signal& s : signals_) {
    os_ << "$var wire " << s.width << " " << s.code << " " << s.name
        << " $end\n";
  }
  os_ << "$upscope $end\n";
  os_ << "$enddefinitions $end\n";
  // Initial snapshot: everything unknown until the first sample.
  os_ << "$dumpvars\n";
  for (Signal& s : signals_) {
    s.last.assign(s.width, 'x');
    if (s.width == 1) {
      os_ << "x" << s.code << "\n";
    } else {
      os_ << "b" << s.last << " " << s.code << "\n";
    }
  }
  os_ << "$end\n";
}

void VcdWriter::begin_time(std::uint64_t t) {
  TMSIM_CHECK_MSG(header_written_, "begin_time before write_header");
  TMSIM_CHECK_MSG(!have_time_ || t > time_,
                  "VCD timesteps must strictly increase");
  have_time_ = true;
  time_ = t;
  os_ << "#" << t << "\n";
}

void VcdWriter::emit(Signal& sig, const std::string& bits) {
  TMSIM_CHECK_MSG(have_time_, "value change before any begin_time");
  if (bits == sig.last) {
    return;
  }
  sig.last = bits;
  if (sig.width == 1) {
    os_ << bits << sig.code << "\n";
  } else {
    // Leading zeros may be dropped per the spec; keep full width for
    // trivially diffable output.
    os_ << "b" << bits << " " << sig.code << "\n";
  }
}

void VcdWriter::change(SignalId s, const BitVector& v) {
  TMSIM_CHECK_MSG(s < signals_.size(), "unknown VCD signal");
  TMSIM_CHECK_MSG(v.width() == signals_[s].width, "VCD signal width mismatch");
  emit(signals_[s], to_bits(v));
}

void VcdWriter::change_u64(SignalId s, std::uint64_t v) {
  TMSIM_CHECK_MSG(s < signals_.size(), "unknown VCD signal");
  const std::size_t width = signals_[s].width;
  if (width < 64) {
    TMSIM_CHECK_MSG((v >> width) == 0, "value wider than VCD signal");
  }
  emit(signals_[s], u64_bits(v, width));
}

// ---------------------------------------------------------------------------
// Parsing (shared by vcd_validate and vcd_diff)
// ---------------------------------------------------------------------------

namespace {

struct ParsedVcd {
  struct Var {
    std::string name;
    std::size_t width = 0;
  };
  // id code -> declaration
  std::map<std::string, Var> vars;
  // ordered (time, id code, value-bits) stream, post-$enddefinitions
  struct Change {
    std::uint64_t time;
    std::string code;
    std::string bits;
  };
  std::vector<Change> changes;
  std::vector<std::uint64_t> times;  // distinct, in order
};

bool is_value_char(char c) {
  switch (c) {
    case '0': case '1': case 'x': case 'X': case 'z': case 'Z':
      return true;
    default:
      return false;
  }
}

/// Parses (and thereby validates) a VCD stream. Returns an error string
/// or fills `out`.
std::optional<std::string> parse_vcd(std::istream& is, ParsedVcd& out) {
  std::vector<std::string> tokens;
  {
    std::string tok;
    while (is >> tok) {
      tokens.push_back(tok);
    }
  }
  if (tokens.empty()) {
    return "empty VCD stream";
  }

  std::size_t i = 0;
  bool definitions_done = false;
  std::size_t scope_depth = 0;
  bool in_dump_block = false;
  bool have_time = false;
  std::uint64_t time = 0;

  auto skip_to_end = [&](const std::string& what) -> std::optional<std::string> {
    while (i < tokens.size() && tokens[i] != "$end") {
      ++i;
    }
    if (i == tokens.size()) {
      return what + " not terminated by $end";
    }
    ++i;  // consume $end
    return std::nullopt;
  };

  while (i < tokens.size()) {
    const std::string& t = tokens[i];
    if (!definitions_done) {
      if (t == "$date" || t == "$version" || t == "$comment" ||
          t == "$timescale") {
        ++i;
        if (auto err = skip_to_end(t)) {
          return err;
        }
      } else if (t == "$scope") {
        ++i;
        ++scope_depth;
        if (auto err = skip_to_end("$scope")) {
          return err;
        }
      } else if (t == "$upscope") {
        if (scope_depth == 0) {
          return "$upscope without matching $scope";
        }
        --scope_depth;
        ++i;
        if (auto err = skip_to_end("$upscope")) {
          return err;
        }
      } else if (t == "$var") {
        // $var <type> <width> <code> <name...> $end
        if (scope_depth == 0) {
          return "$var outside any $scope";
        }
        if (i + 4 >= tokens.size()) {
          return "truncated $var declaration";
        }
        const std::string& width_tok = tokens[i + 2];
        const std::optional<std::uint64_t> w = parse_decimal(
            width_tok, 1, std::numeric_limits<std::size_t>::max());
        if (!w) {
          return "bad $var width '" + width_tok + "'";
        }
        const std::string& code = tokens[i + 3];
        std::string name = tokens[i + 4];
        i += 5;
        // Names may span tokens (e.g. "sig [7:0]"); absorb until $end.
        while (i < tokens.size() && tokens[i] != "$end") {
          name += " " + tokens[i];
          ++i;
        }
        if (i == tokens.size()) {
          return "$var not terminated by $end";
        }
        ++i;
        if (out.vars.count(code)) {
          return "duplicate identifier code '" + code + "'";
        }
        out.vars[code] =
            ParsedVcd::Var{name, static_cast<std::size_t>(*w)};
      } else if (t == "$enddefinitions") {
        ++i;
        if (auto err = skip_to_end("$enddefinitions")) {
          return err;
        }
        if (scope_depth != 0) {
          return "$enddefinitions with unclosed $scope";
        }
        definitions_done = true;
      } else {
        return "unexpected token '" + t + "' in declaration section";
      }
      continue;
    }

    // Value-change section.
    if (t == "$dumpvars" || t == "$dumpall" || t == "$dumpon" ||
        t == "$dumpoff") {
      in_dump_block = true;
      ++i;
    } else if (t == "$end") {
      if (!in_dump_block) {
        return "stray $end in value-change section";
      }
      in_dump_block = false;
      ++i;
    } else if (t == "$comment") {
      ++i;
      if (auto err = skip_to_end("$comment")) {
        return err;
      }
    } else if (t[0] == '#') {
      const std::optional<std::uint64_t> parsed =
          parse_decimal(std::string_view(t).substr(1));
      if (!parsed) {
        return "bad timestep '" + t + "'";
      }
      const std::uint64_t ts = *parsed;
      if (have_time && ts <= time) {
        return "timesteps not strictly increasing at '" + t + "'";
      }
      have_time = true;
      time = ts;
      out.times.push_back(ts);
      ++i;
    } else if (t[0] == 'b' || t[0] == 'B') {
      // Vector change: b<bits> <code>
      const std::string bits = t.substr(1);
      if (bits.empty()) {
        return "vector change with no value";
      }
      for (char c : bits) {
        if (!is_value_char(c)) {
          return "illegal value character in '" + t + "'";
        }
      }
      if (i + 1 >= tokens.size()) {
        return "vector change '" + t + "' missing identifier";
      }
      const std::string& code = tokens[i + 1];
      auto it = out.vars.find(code);
      if (it == out.vars.end()) {
        return "value change for undeclared identifier '" + code + "'";
      }
      if (bits.size() > it->second.width) {
        return "vector value wider than declared for '" + it->second.name +
               "'";
      }
      if (!have_time && !in_dump_block) {
        return "value change before the first timestep";
      }
      out.changes.push_back(
          ParsedVcd::Change{have_time ? time : 0, code, bits});
      i += 2;
    } else if (is_value_char(t[0])) {
      // Scalar change: <value><code>, no whitespace.
      if (t.size() < 2) {
        return "scalar change '" + t + "' missing identifier";
      }
      const std::string code = t.substr(1);
      auto it = out.vars.find(code);
      if (it == out.vars.end()) {
        return "value change for undeclared identifier '" + code + "'";
      }
      if (it->second.width != 1) {
        return "scalar change for vector signal '" + it->second.name + "'";
      }
      if (!have_time && !in_dump_block) {
        return "value change before the first timestep";
      }
      out.changes.push_back(
          ParsedVcd::Change{have_time ? time : 0, code, t.substr(0, 1)});
      ++i;
    } else {
      return "unexpected token '" + t + "' in value-change section";
    }
  }

  if (!definitions_done) {
    return "no $enddefinitions section";
  }
  if (out.vars.empty()) {
    return "no $var declarations";
  }
  return std::nullopt;
}

// Zero-extends and lowercases a bit string for comparison so "b0101" and
// "b101" compare equal at width 4.
std::string normalize_bits(const std::string& bits, std::size_t width) {
  std::string out(width, '0');
  // Left-extension per the VCD spec: pad with '0' unless the msb is
  // x/z, which extends itself.
  char pad = '0';
  if (!bits.empty()) {
    char msb = static_cast<char>(std::tolower(bits[0]));
    if (msb == 'x' || msb == 'z') {
      pad = msb;
    }
  }
  std::fill(out.begin(), out.end(), pad);
  const std::size_t n = std::min(bits.size(), width);
  for (std::size_t k = 0; k < n; ++k) {
    out[width - 1 - k] =
        static_cast<char>(std::tolower(bits[bits.size() - 1 - k]));
  }
  return out;
}

}  // namespace

std::optional<std::string> vcd_validate(std::istream& is) {
  ParsedVcd parsed;
  return parse_vcd(is, parsed);
}

std::string VcdDivergence::summary() const {
  std::ostringstream os;
  if (!diverged) {
    os << "VCDs agree on all shared signals";
  } else {
    os << "first divergence at #" << time << " on '" << signal
       << "': a=" << value_a << " b=" << value_b;
  }
  if (!only_in_a.empty() || !only_in_b.empty()) {
    os << " (signals only in a: " << only_in_a.size()
       << ", only in b: " << only_in_b.size() << ")";
  }
  return os.str();
}

VcdDivergence vcd_diff(std::istream& a, std::istream& b) {
  VcdDivergence d;
  ParsedVcd pa, pb;
  if (auto err = parse_vcd(a, pa)) {
    d.diverged = true;
    d.signal = "<stream a invalid: " + *err + ">";
    return d;
  }
  if (auto err = parse_vcd(b, pb)) {
    d.diverged = true;
    d.signal = "<stream b invalid: " + *err + ">";
    return d;
  }

  // Match signals by *name*; id codes are writer-internal.
  std::map<std::string, std::string> name_to_code_a, name_to_code_b;
  for (const auto& [code, var] : pa.vars) {
    name_to_code_a[var.name] = code;
  }
  for (const auto& [code, var] : pb.vars) {
    name_to_code_b[var.name] = code;
  }
  std::vector<std::string> shared;
  for (const auto& [name, code] : name_to_code_a) {
    if (name_to_code_b.count(name)) {
      shared.push_back(name);
    } else {
      d.only_in_a.push_back(name);
    }
  }
  for (const auto& [name, code] : name_to_code_b) {
    if (!name_to_code_a.count(name)) {
      d.only_in_b.push_back(name);
    }
  }

  // Replay both change streams over the union of timesteps, comparing
  // the post-timestep state of every shared signal.
  std::map<std::string, std::string> state_a, state_b;  // name -> bits
  auto width_of = [&](const ParsedVcd& p, const std::string& code) {
    return p.vars.at(code).width;
  };

  std::set<std::uint64_t> all_times(pa.times.begin(), pa.times.end());
  all_times.insert(pb.times.begin(), pb.times.end());

  std::size_t ia = 0, ib = 0;
  auto apply_until = [&](const ParsedVcd& p, std::size_t& idx,
                         std::uint64_t t,
                         std::map<std::string, std::string>& state) {
    while (idx < p.changes.size() && p.changes[idx].time <= t) {
      const auto& c = p.changes[idx];
      const auto& var = p.vars.at(c.code);
      state[var.name] = normalize_bits(c.bits, var.width);
      ++idx;
    }
  };

  for (std::uint64_t t : all_times) {
    apply_until(pa, ia, t, state_a);
    apply_until(pb, ib, t, state_b);
    for (const std::string& name : shared) {
      const std::size_t wa = width_of(pa, name_to_code_a[name]);
      const std::size_t wb = width_of(pb, name_to_code_b[name]);
      auto sa = state_a.find(name);
      auto sb = state_b.find(name);
      const std::string va =
          sa == state_a.end() ? std::string(wa, 'x') : sa->second;
      const std::string vb =
          sb == state_b.end() ? std::string(wb, 'x') : sb->second;
      if (wa != wb || va != vb) {
        d.diverged = true;
        d.time = t;
        d.signal = name;
        d.value_a = va;
        d.value_b = vb;
        return d;
      }
    }
  }
  return d;
}

}  // namespace tmsim::obs
