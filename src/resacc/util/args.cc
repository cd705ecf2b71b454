#include "resacc/util/args.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace resacc {
namespace {

// Parses all of `text` as a base-10 integer.
bool ParseInt(const std::string& text, std::int64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = parsed;
  return true;
}

}  // namespace

ArgParser::ArgParser(int argc, char** argv,
                     const std::vector<std::string>& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-') {
      positionals_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    const bool is_flag =
        std::find(flags.begin(), flags.end(), body) != flags.end();
    if (eq != std::string::npos) {
      options_.push_back({body.substr(0, eq), body.substr(eq + 1), true});
    } else if (!is_flag && i + 1 < argc && argv[i + 1][0] != '-') {
      options_.push_back({body, argv[i + 1], true});
      ++i;
    } else {
      options_.push_back({body, "", false});
    }
  }
}

const ArgParser::Option* ArgParser::Find(const std::string& name) const {
  for (const Option& option : options_) {
    if (option.name == name) {
      option.used = true;
      return &option;
    }
  }
  return nullptr;
}

const ArgParser::Option* ArgParser::Valued(const std::string& name) const {
  const Option* option = Find(name);
  if (option != nullptr && !option->has_value) {
    option->error = "--" + name + " needs a value";
    return nullptr;
  }
  return option;
}

bool ArgParser::HasFlag(const std::string& name) const {
  const Option* option = Find(name);
  if (option != nullptr && option->has_value) {
    option->error = "--" + name + "=" + option->value + ": takes no value";
  }
  return option != nullptr;
}

std::string ArgParser::GetString(const std::string& name,
                                 const std::string& default_value) const {
  const Option* option = Valued(name);
  return option != nullptr ? option->value : default_value;
}

std::int64_t ArgParser::GetInt(const std::string& name,
                               std::int64_t default_value) const {
  const Option* option = Valued(name);
  if (option == nullptr) return default_value;
  std::int64_t parsed = 0;
  if (!ParseInt(option->value, parsed)) {
    option->error = "--" + name + "=" + option->value + ": not an integer";
    return default_value;
  }
  return parsed;
}

double ArgParser::GetDouble(const std::string& name,
                            double default_value) const {
  const Option* option = Valued(name);
  if (option == nullptr) return default_value;
  const std::string& text = option->value;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(text.c_str(), &end);
  if (text.empty() || errno != 0 || *end != '\0') {
    option->error = "--" + name + "=" + text + ": not a number";
    return default_value;
  }
  return parsed;
}

std::vector<std::int64_t> ArgParser::GetIntList(
    const std::string& name) const {
  std::vector<std::int64_t> values;
  const Option* option = Valued(name);
  if (option == nullptr) return values;
  const std::string& text = option->value;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string token =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    std::int64_t value = 0;
    if (ParseInt(token, value)) {
      values.push_back(value);
    } else if (!token.empty()) {
      option->error = "--" + name + "=" + text + ": not a list of integers";
      return {};
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

std::vector<std::string> ArgParser::UnusedOptions() const {
  std::vector<std::string> unused;
  for (const Option& option : options_) {
    if (!option.used) unused.push_back(option.name);
  }
  return unused;
}

std::vector<std::string> ArgParser::Errors() const {
  std::vector<std::string> errors;
  for (const Option& option : options_) {
    if (!option.used) {
      errors.push_back("unknown option --" + option.name);
    } else if (!option.error.empty()) {
      errors.push_back(option.error);
    }
  }
  return errors;
}

}  // namespace resacc
