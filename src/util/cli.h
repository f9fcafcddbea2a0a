// A small command-line parser modelled on RAxML's option style: single-dash
// short options, each taking at most one value (e.g. "-N 100 -p 12345 -f a").
// Used by the example executables; not a general-purpose getopt clone.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace raxh {

class CliParser {
 public:
  CliParser(int argc, const char* const* argv);

  // True if "-flag" occurred (with or without a value).
  [[nodiscard]] bool has(const std::string& flag) const;

  // Value of "-flag value"; nullopt if the flag is absent or valueless.
  [[nodiscard]] std::optional<std::string> value(const std::string& flag) const;

  [[nodiscard]] std::string value_or(const std::string& flag,
                                     std::string fallback) const;
  [[nodiscard]] long long int_or(const std::string& flag,
                                 long long fallback) const;
  [[nodiscard]] double double_or(const std::string& flag,
                                 double fallback) const;

  // The first flag (as stored, leading dash stripped) that occurred but is
  // not in `known`; nullopt if every flag is known. Lets a front end reject
  // options it does not read instead of ignoring them.
  [[nodiscard]] std::optional<std::string> first_unknown(
      const std::vector<std::string>& known) const;

  // Arguments that did not belong to any flag, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;  // flag -> value ("" if none)
  std::vector<std::string> positional_;
};

}  // namespace raxh
