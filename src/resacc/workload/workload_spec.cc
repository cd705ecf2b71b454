#include "resacc/workload/workload_spec.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "resacc/serve/query_service.h"

namespace resacc {
namespace {

const char* const kClassNames[kNumOpClasses] = {"full", "topk", "deadline",
                                                "degraded", "mutation"};

// Splits a line into whitespace-separated tokens, dropping everything from
// '#' on so specs can carry inline comments.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == '#') break;
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) {
        tokens.push_back(current);
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(current);
  return tokens;
}

Status LineError(const std::string& origin, int line, const std::string& msg) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "line %d: ", line);
  return Status::InvalidArgument(buf + msg + " (" + origin + ")");
}

bool ParsePositiveDouble(const std::string& token, double* out) {
  std::size_t pos = 0;
  double v;
  try {
    v = std::stod(token, &pos);
  } catch (...) {
    return false;
  }
  if (pos != token.size() || !(v > 0.0)) return false;
  *out = v;
  return true;
}

bool ParseNonNegativeDouble(const std::string& token, double* out) {
  std::size_t pos = 0;
  double v;
  try {
    v = std::stod(token, &pos);
  } catch (...) {
    return false;
  }
  if (pos != token.size() || !(v >= 0.0)) return false;
  *out = v;
  return true;
}

bool ParseU64(const std::string& token, std::uint64_t* out) {
  if (token.empty()) return false;
  std::uint64_t v = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

}  // namespace

const char* OpClassName(OpClass cls) {
  return kClassNames[static_cast<std::size_t>(cls)];
}

bool ParseOpClass(const std::string& name, OpClass* out) {
  for (std::size_t i = 0; i < kNumOpClasses; ++i) {
    if (name == kClassNames[i]) {
      *out = static_cast<OpClass>(i);
      return true;
    }
  }
  return false;
}

std::size_t WorkloadSpec::TenantIndex(const std::string& name) const {
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (tenants[i].name == name) return i;
  }
  return tenants.size();
}

StatusOr<WorkloadSpec> WorkloadSpec::Parse(const std::string& text,
                                           const std::string& origin) {
  WorkloadSpec spec;
  // The tenant being filled between `tenant NAME` and `end`, if any.
  TenantSpec* open = nullptr;
  std::array<bool, kNumOpClasses> class_seen{};

  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::vector<std::string> tok = Tokenize(line);
    if (tok.empty()) continue;
    const std::string& key = tok[0];

    if (open == nullptr) {
      // Top-level directives.
      if (key == "duration_seconds") {
        if (tok.size() != 2 ||
            !ParsePositiveDouble(tok[1], &spec.duration_seconds)) {
          return LineError(origin, lineno,
                           "duration_seconds needs one positive number");
        }
      } else if (key == "seed") {
        if (tok.size() != 2 || !ParseU64(tok[1], &spec.seed)) {
          return LineError(origin, lineno, "seed needs one unsigned integer");
        }
      } else if (key == "source") {
        if (tok.size() < 2) {
          return LineError(origin, lineno,
                           "source needs a picker: zipfian|uniform|hotset");
        }
        if (tok[1] == "zipfian") {
          spec.picker = SourcePickerKind::kZipfian;
          if (tok.size() == 3) {
            if (!ParseNonNegativeDouble(tok[2], &spec.zipf_theta)) {
              return LineError(origin, lineno,
                               "zipfian theta must be a number >= 0");
            }
          } else if (tok.size() != 2) {
            return LineError(origin, lineno, "source zipfian [theta]");
          }
        } else if (tok[1] == "uniform") {
          if (tok.size() != 2) {
            return LineError(origin, lineno, "source uniform takes no args");
          }
          spec.picker = SourcePickerKind::kUniform;
        } else if (tok[1] == "hotset") {
          spec.picker = SourcePickerKind::kHotset;
          if (tok.size() == 3) {
            if (!ParsePositiveDouble(tok[2], &spec.hotset_fraction) ||
                spec.hotset_fraction > 1.0) {
              return LineError(origin, lineno,
                               "hotset fraction must be in (0, 1]");
            }
          } else if (tok.size() != 2) {
            return LineError(origin, lineno, "source hotset [fraction]");
          }
        } else {
          return LineError(origin, lineno,
                           "unknown source picker '" + tok[1] + "'");
        }
      } else if (key == "top_k") {
        std::uint64_t k = 0;
        if (tok.size() != 2 || !ParseU64(tok[1], &k) || k == 0) {
          return LineError(origin, lineno, "top_k needs a positive integer");
        }
        spec.top_k = static_cast<std::size_t>(k);
      } else if (key == "deadline_ms") {
        if (tok.size() != 2 ||
            !ParsePositiveDouble(tok[1], &spec.deadline_ms)) {
          return LineError(origin, lineno,
                           "deadline_ms needs one positive number");
        }
      } else if (key == "tenant") {
        if (tok.size() != 2) {
          return LineError(origin, lineno, "tenant needs exactly one name");
        }
        if (!IsValidTenantName(tok[1])) {
          return LineError(origin, lineno,
                           "tenant name '" + tok[1] +
                               "' is reserved or not [A-Za-z0-9_.-]+");
        }
        if (spec.TenantIndex(tok[1]) != spec.tenants.size()) {
          return LineError(origin, lineno,
                           "duplicate tenant '" + tok[1] + "'");
        }
        spec.tenants.emplace_back();
        open = &spec.tenants.back();
        open->name = tok[1];
        class_seen.fill(false);
      } else if (key == "end") {
        return LineError(origin, lineno, "'end' outside a tenant block");
      } else {
        return LineError(origin, lineno, "unknown directive '" + key + "'");
      }
      continue;
    }

    // Inside a tenant block.
    if (key == "end") {
      if (tok.size() != 1) {
        return LineError(origin, lineno, "'end' takes no arguments");
      }
      double total = 0.0;
      for (double m : open->mix) total += m;
      if (!(total > 0.0)) {
        return LineError(origin, lineno, "tenant '" + open->name +
                                             "' has no class mix");
      }
      for (double& m : open->mix) m /= total;
      open = nullptr;
    } else if (key == "weight") {
      if (tok.size() != 2 || !ParsePositiveDouble(tok[1], &open->weight)) {
        return LineError(origin, lineno, "weight must be a number > 0");
      }
    } else if (key == "rate") {
      if (tok.size() != 2 || !ParseNonNegativeDouble(tok[1], &open->rate)) {
        return LineError(origin, lineno,
                         "rate must be a number >= 0 (0 = closed loop)");
      }
    } else if (key == "concurrency") {
      std::uint64_t c = 0;
      if (tok.size() != 2 || !ParseU64(tok[1], &c) || c == 0) {
        return LineError(origin, lineno,
                         "concurrency needs a positive integer");
      }
      open->concurrency = static_cast<std::size_t>(c);
    } else if (key == "class") {
      OpClass cls;
      if (tok.size() != 3 || !ParseOpClass(tok[1], &cls)) {
        return LineError(
            origin, lineno,
            "class needs <full|topk|deadline|degraded|mutation> <share>");
      }
      const std::size_t idx = static_cast<std::size_t>(cls);
      if (class_seen[idx]) {
        return LineError(origin, lineno,
                         "duplicate class '" + tok[1] + "'");
      }
      double share = 0.0;
      if (!ParsePositiveDouble(tok[2], &share)) {
        return LineError(origin, lineno, "class share must be > 0");
      }
      class_seen[idx] = true;
      open->mix[idx] = share;
    } else {
      return LineError(origin, lineno,
                       "unknown tenant directive '" + key + "'");
    }
  }

  if (open != nullptr) {
    return LineError(origin, lineno, "tenant '" + open->name +
                                         "' not closed with 'end'");
  }
  if (spec.tenants.empty()) {
    return LineError(origin, lineno > 0 ? lineno : 1,
                     "spec declares no tenants");
  }
  return spec;
}

StatusOr<WorkloadSpec> WorkloadSpec::ParseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open workload spec: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str(), path);
}

}  // namespace resacc
