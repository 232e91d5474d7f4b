/**
 * @file
 * Machine-readable experiment reports.
 *
 * Every bench binary dumps the full ExperimentResult set of its sweep
 * to bench/out/<name>.json so the perf trajectory of the repo can be
 * tracked across commits without scraping printed tables. The schema
 * is a single top-level object:
 *
 *   {
 *     "schema": "widir-sweep-v1",
 *     "name": "<bench name>",
 *     "results": [ { ...one object per ExperimentResult... } ]
 *   }
 *
 * Each result object carries every field the paper's evaluation
 * reports: cycles, the MPKI split, stall fractions, latency sums, the
 * hop and sharers-updated histograms, wireless behaviour (collision
 * probability, W-state transitions) and the energy breakdown.
 *
 * A small self-contained JSON value parser lives here too so tests
 * can round-trip the writer's output without external dependencies.
 */

#ifndef WIDIR_SYSTEM_REPORT_H
#define WIDIR_SYSTEM_REPORT_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "system/experiment.h"

namespace widir::sys {

namespace json {

/** A parsed JSON value (tree-owning, move-only via unique_ptr). */
class Value
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    /** Exact integer payload when the literal had no '.'/exponent. */
    std::uint64_t uinteger = 0;
    bool isInteger = false;
    bool negative = false;
    std::string string;
    std::vector<Value> array;
    std::map<std::string, Value> object;

    bool isNull() const { return type == Type::Null; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;

    /** Number as uint64 (0 when not an unsigned integer literal). */
    std::uint64_t asUint() const;
};

/**
 * Parse @p text into a Value.
 * @param err receives a message on failure (may be null).
 * @return true on success.
 */
bool parse(const std::string &text, Value &out, std::string *err);

} // namespace json

/** Serialize one result as a JSON object. */
std::string resultToJson(const ExperimentResult &r, int indent = 0);

/** Serialize a whole sweep under the widir-sweep-v1 schema. */
std::string resultsToJson(const std::string &name,
                          const std::vector<ExperimentResult> &results);

/**
 * Write the widir-sweep-v1 document to @p path, creating parent
 * directories as needed.
 * @return true if the file was written.
 */
bool writeResultsJson(const std::string &path, const std::string &name,
                      const std::vector<ExperimentResult> &results);

} // namespace widir::sys

#endif // WIDIR_SYSTEM_REPORT_H
