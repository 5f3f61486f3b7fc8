#include "golden.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

bool
Golden::load(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::istringstream fields(line);
        std::string key;
        std::string hex;
        if (!(fields >> key >> hex)) {
            return false;
        }
        try {
            size_t used = 0;
            table_[key] = std::stoull(hex, &used, 16);
            if (used != hex.size()) {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    return true;
}

bool
Golden::matches(const std::string& key, uint64_t value) const
{
    const auto it = table_.find(key);
    return it != table_.end() && it->second == value;
}

bool
Golden::write(const std::string& path) const
{
    std::ofstream out(path);
    out << "# Golden outputs of the perfbench workloads: key, then the\n"
           "# fingerprint in hex. Regenerate with perfbench --write-golden.\n";
    char buf[32];
    for (const auto& [key, value] : table_) {
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(value));
        out << key << ' ' << buf << '\n';
    }
    return static_cast<bool>(out.flush());
}

uint64_t
digest(const std::string& text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace perfbench
