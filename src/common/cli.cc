#include "common/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/status.h"

namespace vtrans {

namespace {

const char*
valueHint(FlagKind kind)
{
    switch (kind) {
      case FlagKind::Switch:
        return "";
      case FlagKind::Text:
        return " <value>";
      case FlagKind::Int:
        return " <integer>";
      case FlagKind::Real:
        return " <number>";
    }
    return "";
}

/** True if all of `text` parses as `kind` (Switch and Text always do). */
bool
parses(const std::string& text, FlagKind kind)
{
    if (kind != FlagKind::Int && kind != FlagKind::Real) {
        return true;
    }
    if (text.empty()) {
        return false;
    }
    char* end = nullptr;
    errno = 0;
    if (kind == FlagKind::Int) {
        std::strtoll(text.c_str(), &end, 10);
        return *end == '\0' && errno == 0;
    }
    const double value = std::strtod(text.c_str(), &end);
    return *end == '\0' && errno == 0 && std::isfinite(value);
}

} // namespace

Cli::Cli(int argc, const char* const* argv, FlagList accepted,
         bool positionals)
    : accepted_(std::move(accepted)), positionals_(positionals)
{
    program_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            if (!positionals_) {
                VT_FATAL(program_, ": unexpected argument '", arg,
                         "' (see --help)");
            }
            positional_.push_back(arg);
            continue;
        }
        const auto eq = arg.find('=');
        const std::string name = arg.substr(2, eq - 2);
        if (name == "help") {
            usage();
        }
        const FlagSpec* spec = find(name);
        if (spec == nullptr) {
            VT_FATAL(program_, ": unknown flag --", name, " (see --help)");
        }
        std::string value;
        if (eq != std::string::npos) {
            if (spec->kind == FlagKind::Switch) {
                VT_FATAL(program_, ": flag --", name, " takes no value");
            }
            value = arg.substr(eq + 1);
        } else if (spec->kind != FlagKind::Switch) {
            // `--key value` form; the value may not itself be a flag.
            if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
                VT_FATAL(program_, ": flag --", name, " needs a value");
            }
            value = argv[++i];
        }
        if (!parses(value, spec->kind)) {
            VT_FATAL(program_, ": flag --", name, " needs",
                     valueHint(spec->kind), ", got '", value, "'");
        }
        flags_.emplace_back(name, value);
    }
}

const FlagSpec*
Cli::find(const std::string& name) const
{
    for (const FlagSpec& spec : accepted_) {
        if (spec.name == name) {
            return &spec;
        }
    }
    return nullptr;
}

const std::string*
Cli::lookup(const std::string& name, FlagKind kind) const
{
    const FlagSpec* spec = find(name);
    VT_ASSERT(spec != nullptr && spec->kind == kind, program_,
              " reads flag --", name, " that it did not declare as",
              valueHint(kind));
    for (const auto& [k, v] : flags_) {
        if (k == name) {
            return &v;
        }
    }
    return nullptr;
}

void
Cli::usage() const
{
    std::printf("usage: %s [flags]%s\n", program_.c_str(),
                positionals_ ? " <arguments>" : "");
    for (const FlagSpec& spec : accepted_) {
        std::printf("  --%s%s\n", spec.name.c_str(), valueHint(spec.kind));
    }
    std::printf("  --help\n");
    std::exit(0);
}

bool
Cli::has(const std::string& name) const
{
    VT_ASSERT(find(name) != nullptr, program_, " reads flag --", name,
              " that it did not declare");
    for (const auto& [k, v] : flags_) {
        if (k == name) {
            return true;
        }
    }
    return false;
}

std::string
Cli::str(const std::string& name, const std::string& def) const
{
    const std::string* value = lookup(name, FlagKind::Text);
    return value != nullptr ? *value : def;
}

int64_t
Cli::num(const std::string& name, int64_t def) const
{
    const std::string* value = lookup(name, FlagKind::Int);
    return value != nullptr ? std::strtoll(value->c_str(), nullptr, 10)
                            : def;
}

double
Cli::real(const std::string& name, double def) const
{
    const std::string* value = lookup(name, FlagKind::Real);
    return value != nullptr ? std::strtod(value->c_str(), nullptr) : def;
}

} // namespace vtrans
