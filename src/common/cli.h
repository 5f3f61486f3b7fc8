#ifndef VTRANS_COMMON_CLI_H_
#define VTRANS_COMMON_CLI_H_

/**
 * @file
 * A strict command-line flag parser shared by the bench, example and tool
 * binaries. Each binary declares the flags it accepts; `--flag`,
 * `--key=value` and `--key value` forms are supported.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace vtrans {

/** How a declared flag takes its value. */
enum class FlagKind : uint8_t
{
    Switch, ///< `--name`; takes no value.
    Text,   ///< Any string value.
    Int,    ///< A base-10 integer, read with Cli::num().
    Real,   ///< A finite floating-point number, read with Cli::real().
};

/** One flag a binary accepts. */
struct FlagSpec
{
    std::string name; ///< Without the leading dashes.
    FlagKind kind = FlagKind::Switch;
};

using FlagList = std::vector<FlagSpec>;

/** Parsed command-line flags with typed accessors and defaults. */
class Cli
{
  public:
    /**
     * Parses argv against the flags the binary accepts. An unknown flag,
     * a value given to a switch, a missing value, or a value that does
     * not parse as its Int/Real kind exits with status 1 and a message
     * naming the flag, before the binary does any work. `--help` is
     * always accepted: it prints the accepted flags and exits 0.
     * Positional arguments are an error unless `positionals` is set.
     */
    Cli(int argc, const char* const* argv, FlagList accepted,
        bool positionals = false);

    /** True if `--name` was present (with or without a value). */
    bool has(const std::string& name) const;

    /** Returns the string value of `--name`, or `def`. */
    std::string str(const std::string& name, const std::string& def) const;

    /** Returns the value of the Int flag `--name`, or `def`. */
    int64_t num(const std::string& name, int64_t def) const;

    /** Returns the value of the Real flag `--name`, or `def`. */
    double real(const std::string& name, double def) const;

    /** Positional (non-flag) arguments. */
    const std::vector<std::string>& positional() const { return positional_; }

    /** The binary name (argv[0]). */
    const std::string& program() const { return program_; }

  private:
    /** The declaration of `name`, or nullptr. */
    const FlagSpec* find(const std::string& name) const;

    /** The value of `--name`, or nullptr if absent; asserts that the
     *  binary declared `name` as `kind` (a programming error otherwise). */
    const std::string* lookup(const std::string& name, FlagKind kind) const;

    [[noreturn]] void usage() const;

    std::string program_;
    FlagList accepted_;
    bool positionals_ = false;
    std::vector<std::pair<std::string, std::string>> flags_;
    std::vector<std::string> positional_;
};

} // namespace vtrans

#endif // VTRANS_COMMON_CLI_H_
