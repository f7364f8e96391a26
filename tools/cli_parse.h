// Shared flag-parsing helpers for every gsmb_cli subcommand.
//
// Before the facade each mode of the CLI carried its own copies of the
// enum-parsing helpers and its own exit-on-error convention. Everything
// here returns gsmb::Status/Result instead of exiting, names the offending
// flag in every message, and is shared by every subcommand — one parser,
// one diagnostic style.

#ifndef GSMB_TOOLS_CLI_PARSE_H_
#define GSMB_TOOLS_CLI_PARSE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gsmb/job_spec.h"
#include "gsmb/status.h"

namespace gsmb::cli {

/// A forward cursor over argv tokens.
class ArgStream {
 public:
  ArgStream(int argc, char** argv, int begin);
  explicit ArgStream(std::vector<std::string> args)
      : args_(std::move(args)) {}

  bool Done() const { return pos_ >= args_.size(); }
  /// The current token, advancing past it.
  const std::string& Take();
  /// The value of `flag` (the next token); errors when argv ends first.
  Result<std::string> Value(const std::string& flag);

 private:
  std::vector<std::string> args_;
  size_t pos_ = 0;
};

/// Strict non-negative integer: every character a digit, fits uint64_t.
/// (std::stoull alone would accept "-1" by wrapping modulo 2^64.)
Result<uint64_t> ParseCount(const std::string& flag, const std::string& text);

/// Strict finite double: the whole token must parse (std::stod alone would
/// silently accept "0.8abc" and inf/nan).
Result<double> ParseDouble(const std::string& flag, const std::string& text);

/// Loads `--config` spec files before any other flag applies, so flags
/// merge OVER the file — and the file merges over whatever mode-specific
/// defaults the caller pre-seeded into `spec` (absent keys keep them).
/// Scans `args`, loads at most one spec file, sets `*loaded` when one was,
/// and returns the remaining flags in order.
Result<std::vector<std::string>> ExtractConfig(const std::vector<std::string>& args,
                                               JobSpec* spec,
                                               bool* loaded = nullptr);

enum class FlagOutcome {
  kNotMine,  ///< not a shared pipeline flag; caller tries its own table
  kHandled,
};

/// Applies one of the pipeline flags every subcommand understands —
/// --pruning, --classifier, --features, --labels, --seed, --threads — to
/// the spec. Diagnostics are flag-qualified ("--pruning: unknown ...").
Result<FlagOutcome> ApplySharedFlag(const std::string& flag, ArgStream& args,
                                    JobSpec* spec);

}  // namespace gsmb::cli

#endif  // GSMB_TOOLS_CLI_PARSE_H_
