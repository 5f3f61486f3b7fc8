#ifndef PERFBENCH_FLAGS_H_
#define PERFBENCH_FLAGS_H_

/**
 * @file
 * A strict command-line parser for the benchmark binary: every flag is
 * declared with its help text, unknown flags and malformed values are
 * errors, and `--help` is generated from the declarations. A typo must
 * never turn into a default and a plausible-looking number.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Flags
{
  public:
    explicit Flags(std::string program, std::string summary);

    /** Declares `--name VALUE` with a default shown in --help. */
    void declare(const std::string& name, const std::string& def,
                 const std::string& help);

    /**
     * Parses `--name VALUE` and `--name=VALUE` forms. Returns false and
     * sets `error()` on an unknown flag, a missing value, a repeated
     * flag or a positional argument; returns false with an empty error
     * when `--help` was given (the caller prints `help()`).
     */
    bool parse(int argc, const char* const* argv);

    const std::string& error() const { return error_; }

    /** The generated usage text. */
    std::string help() const;

    std::string str(const std::string& name) const;

    /** The value as an integer; false if it is not one (or out of
     *  range). */
    bool integer(const std::string& name, int64_t* out) const;

    /** True if the flag was given on the command line. */
    bool given(const std::string& name) const;

  private:
    struct Decl
    {
        std::string def;
        std::string help;
    };
    std::string program_;
    std::string summary_;
    std::vector<std::string> order_;
    std::map<std::string, Decl> decls_;
    std::map<std::string, std::string> values_;
    std::string error_;
};

} // namespace perfbench

#endif // PERFBENCH_FLAGS_H_
