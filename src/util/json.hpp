/**
 * @file
 * Minimal streaming JSON writer for machine-readable bench reports.
 *
 * The bench binaries emit their tables and timing data as JSON (the
 * `--json` flag) so perf trajectories can be tracked across commits
 * without scraping ASCII tables.  The writer produces deterministic,
 * pretty-printed output: keys appear in emission order and doubles are
 * printed with enough digits to round-trip.
 */

#ifndef LEAKBOUND_UTIL_JSON_HPP
#define LEAKBOUND_UTIL_JSON_HPP

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.hpp"

namespace leakbound::util {

/** Escape @p s for inclusion inside a JSON string literal (no quotes). */
std::string json_escape(const std::string &s);

/**
 * Streaming JSON emitter with explicit structure calls.  Usage:
 * @code
 *   JsonWriter w;
 *   w.begin_object();
 *   w.key("jobs").value(8u);
 *   w.key("tables").begin_array();
 *   ...
 *   w.end_array();
 *   w.end_object();
 *   write_file(path, w.str());
 * @endcode
 *
 * Structural misuse (e.g. end_array() with no open array) panics: the
 * report writers are static code paths, so a mismatch is a bug.
 */
class JsonWriter
{
  public:
    JsonWriter();

    JsonWriter &begin_object();
    JsonWriter &end_object();
    JsonWriter &begin_array();
    JsonWriter &end_array();

    /** Emit an object key; the next call must emit its value. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(bool v);
    JsonWriter &null();

    /** Convenience: an array of strings in one call. */
    JsonWriter &value(const std::vector<std::string> &v);

    /** The document so far (call after the root closes). */
    std::string str() const { return out_.str(); }

  private:
    enum class Scope : std::uint8_t { Object, Array };

    void before_value();
    void newline_indent();

    std::ostringstream out_;
    std::vector<Scope> scopes_;
    /** Whether the current scope already holds at least one entry. */
    std::vector<bool> has_entries_;
    bool pending_key_ = false;
};

/**
 * A parsed JSON document node.  The serve protocol receives requests
 * as length-prefixed JSON frames; this is the read side of the
 * JsonWriter above — small, strict, and defensive (depth-capped,
 * bounds-checked, no exceptions for malformed input: json_parse
 * returns a typed Status instead).
 *
 * Objects preserve key order and allow duplicate keys syntactically;
 * find() returns the first occurrence.  Numbers remember whether the
 * literal was integral so u64 fields (instruction counts, cycle
 * thresholds) round-trip exactly.
 */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default; ///< null

    Kind kind() const { return kind_; }
    bool is_null() const { return kind_ == Kind::Null; }
    bool is_bool() const { return kind_ == Kind::Bool; }
    bool is_number() const { return kind_ == Kind::Number; }
    bool is_string() const { return kind_ == Kind::String; }
    bool is_array() const { return kind_ == Kind::Array; }
    bool is_object() const { return kind_ == Kind::Object; }

    /** The boolean payload; asserts is_bool(). */
    bool bool_value() const;

    /** The numeric payload as a double; asserts is_number(). */
    double number_value() const;

    /**
     * Whether the literal was a non-negative integer that fits u64
     * exactly (so "8000000" does, "8e6" and "-1" do not).
     */
    bool is_u64() const { return kind_ == Kind::Number && exact_u64_; }

    /** The exact u64 payload; asserts is_u64(). */
    std::uint64_t u64_value() const;

    /** The string payload; asserts is_string(). */
    const std::string &string_value() const;

    /** The elements; asserts is_array(). */
    const std::vector<JsonValue> &array() const;

    /** The members in document order; asserts is_object(). */
    const std::vector<Member> &object() const;

    /** First member named @p key, or nullptr; asserts is_object(). */
    const JsonValue *find(const std::string &key) const;

    // Construction helpers (the parser and tests use these).
    static JsonValue make_null();
    static JsonValue make_bool(bool v);
    static JsonValue make_number(double v);
    static JsonValue make_u64(std::uint64_t v);
    static JsonValue make_string(std::string v);
    static JsonValue make_array(std::vector<JsonValue> v);
    static JsonValue make_object(std::vector<Member> v);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    bool exact_u64_ = false;
    std::uint64_t u64_ = 0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<Member> object_;
};

/** Nesting depth json_parse accepts before rejecting the document. */
inline constexpr std::size_t kJsonMaxDepth = 64;

/**
 * Parse @p text as one JSON document (leading/trailing whitespace
 * allowed, nothing else).  Malformed input — bad syntax, trailing
 * garbage, nesting deeper than kJsonMaxDepth, invalid \u escapes —
 * yields an ErrorKind::CorruptData Status with an offset-bearing
 * message; the parser never throws and never reads out of bounds.
 */
Expected<JsonValue> json_parse(std::string_view text);

} // namespace leakbound::util

#endif // LEAKBOUND_UTIL_JSON_HPP
