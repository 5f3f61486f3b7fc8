#ifndef PERFBENCH_GOLDEN_H_
#define PERFBENCH_GOLDEN_H_

/**
 * @file
 * Committed golden fingerprints: `key value` lines (value in hex) in
 * perfbench/golden.txt. A run checks every output it produces against
 * this table; a missing key is a mismatch, and each mismatch is a failed
 * operation. `--write-golden` regenerates the table.
 */

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

class Golden
{
  public:
    /** Reads a table; false if the file cannot be read or a line is
     *  malformed. */
    [[nodiscard]] bool load(const std::string& path);

    /** True if `key` is present with exactly `value`. */
    bool matches(const std::string& key, uint64_t value) const;

    void set(const std::string& key, uint64_t value) { table_[key] = value; }
    size_t size() const { return table_.size(); }

    [[nodiscard]] bool write(const std::string& path) const;

  private:
    std::map<std::string, uint64_t> table_;
};

/** FNV-1a 64 over a string (run-log digests). */
uint64_t digest(const std::string& text);

} // namespace perfbench

#endif // PERFBENCH_GOLDEN_H_
