#ifndef RESACC_UTIL_ARGS_H_
#define RESACC_UTIL_ARGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace resacc {

// Tiny command-line parser for the CLI tool: positionals plus
// `--key=value` / `--key value` / boolean `--flag` options. No external
// dependencies, no global state.
class ArgParser {
 public:
  // `flags` names the boolean options the tool reads with HasFlag. They
  // never take a value, so `--histogram g.bin` leaves g.bin a positional;
  // any other `--key` takes the next argument as its value unless that
  // starts with '-'.
  ArgParser(int argc, char** argv, const std::vector<std::string>& flags = {});

  // Positional arguments (argv[0] excluded), in order.
  const std::vector<std::string>& positionals() const { return positionals_; }

  bool HasFlag(const std::string& name) const;
  // The value getters return the default for an absent option. A present
  // option whose value is missing or does not parse whole also returns the
  // default and is reported by Errors().
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  std::int64_t GetInt(const std::string& name,
                      std::int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;

  // Comma-separated integer list, e.g. --sources=1,2,3.
  std::vector<std::int64_t> GetIntList(const std::string& name) const;

  // Options that were passed but never read — for typo detection.
  std::vector<std::string> UnusedOptions() const;

  // Why the command line should be refused, one message per option: each
  // unused option ("unknown option --name"), each value a getter could not
  // parse or found missing, and each flag given a value. Call it after
  // every option has been read; a tool exits 2 on any.
  std::vector<std::string> Errors() const;

 private:
  struct Option {
    std::string name;
    std::string value;
    bool has_value;
    mutable bool used = false;
    mutable std::string error{};  // set by the getter that rejected it
  };
  const Option* Find(const std::string& name) const;
  // Find for the value getters: nullptr when the option is absent, or
  // present without a value (recorded as its error).
  const Option* Valued(const std::string& name) const;

  std::vector<std::string> positionals_;
  std::vector<Option> options_;
};

}  // namespace resacc

#endif  // RESACC_UTIL_ARGS_H_
