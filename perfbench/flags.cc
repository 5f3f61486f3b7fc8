#include "flags.h"

#include <cerrno>
#include <cstdlib>

namespace perfbench {

Flags::Flags(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary))
{
}

void
Flags::declare(const std::string& name, const std::string& def,
               const std::string& help)
{
    if (decls_.emplace(name, Decl{def, help}).second) {
        order_.push_back(name);
    }
}

bool
Flags::parse(int argc, const char* const* argv)
{
    error_.clear();
    values_.clear();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            return false;
        }
        if (arg.rfind("--", 0) != 0 || arg.size() == 2) {
            error_ = "unexpected argument '" + arg + "'";
            return false;
        }
        std::string name = arg.substr(2);
        std::string value;
        const size_t eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            error_ = "flag --" + name + " needs a value";
            return false;
        }
        if (decls_.count(name) == 0) {
            error_ = "unknown flag --" + name;
            return false;
        }
        if (!values_.emplace(name, value).second) {
            error_ = "flag --" + name + " given twice";
            return false;
        }
    }
    return true;
}

std::string
Flags::help() const
{
    std::string out = "usage: " + program_ + " [flags]\n" + summary_ + "\n\n";
    for (const auto& name : order_) {
        const Decl& d = decls_.at(name);
        out += "  --" + name + " VALUE\n      " + d.help;
        if (!d.def.empty()) {
            out += " (default: " + d.def + ")";
        }
        out += "\n";
    }
    return out;
}

std::string
Flags::str(const std::string& name) const
{
    const auto it = values_.find(name);
    return it != values_.end() ? it->second : decls_.at(name).def;
}

bool
Flags::integer(const std::string& name, int64_t* out) const
{
    const std::string s = str(name);
    if (s.empty()) {
        return false;
    }
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(s.c_str(), &end, 10);
    if (errno != 0 || end == s.c_str() || *end != '\0') {
        return false;
    }
    *out = v;
    return true;
}

bool
Flags::given(const std::string& name) const
{
    return values_.count(name) != 0;
}

} // namespace perfbench
