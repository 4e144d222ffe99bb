/**
 * @file
 * Implementation of the streaming JSON writer.
 */

#include "util/json.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hpp"

namespace leakbound::util {

std::string
json_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

JsonWriter::JsonWriter() = default;

void
JsonWriter::newline_indent()
{
    out_ << '\n';
    for (std::size_t i = 0; i < scopes_.size(); ++i)
        out_ << "  ";
}

void
JsonWriter::before_value()
{
    if (scopes_.empty())
        return; // root value
    if (scopes_.back() == Scope::Object) {
        LEAKBOUND_ASSERT(pending_key_,
                         "JSON object value emitted without a key");
        pending_key_ = false;
        return; // key() already handled comma/indent
    }
    if (has_entries_.back())
        out_ << ',';
    newline_indent();
    has_entries_.back() = true;
}

JsonWriter &
JsonWriter::begin_object()
{
    before_value();
    out_ << '{';
    scopes_.push_back(Scope::Object);
    has_entries_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::end_object()
{
    LEAKBOUND_ASSERT(!scopes_.empty() && scopes_.back() == Scope::Object,
                     "end_object with no open object");
    LEAKBOUND_ASSERT(!pending_key_, "end_object after a dangling key");
    const bool had = has_entries_.back();
    scopes_.pop_back();
    has_entries_.pop_back();
    if (had)
        newline_indent();
    out_ << '}';
    return *this;
}

JsonWriter &
JsonWriter::begin_array()
{
    before_value();
    out_ << '[';
    scopes_.push_back(Scope::Array);
    has_entries_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::end_array()
{
    LEAKBOUND_ASSERT(!scopes_.empty() && scopes_.back() == Scope::Array,
                     "end_array with no open array");
    const bool had = has_entries_.back();
    scopes_.pop_back();
    has_entries_.pop_back();
    if (had)
        newline_indent();
    out_ << ']';
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    LEAKBOUND_ASSERT(!scopes_.empty() && scopes_.back() == Scope::Object,
                     "JSON key outside an object");
    LEAKBOUND_ASSERT(!pending_key_, "two JSON keys in a row");
    if (has_entries_.back())
        out_ << ',';
    newline_indent();
    has_entries_.back() = true;
    out_ << '"' << json_escape(name) << "\": ";
    pending_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    before_value();
    out_ << '"' << json_escape(v) << '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    before_value();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ << buf;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    before_value();
    out_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    before_value();
    out_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    before_value();
    out_ << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    before_value();
    out_ << "null";
    return *this;
}

JsonWriter &
JsonWriter::value(const std::vector<std::string> &v)
{
    begin_array();
    for (const std::string &s : v)
        value(s);
    return end_array();
}

bool
JsonValue::bool_value() const
{
    LEAKBOUND_ASSERT(is_bool(), "bool_value() on a non-bool JSON node");
    return bool_;
}

double
JsonValue::number_value() const
{
    LEAKBOUND_ASSERT(is_number(), "number_value() on a non-number node");
    return number_;
}

std::uint64_t
JsonValue::u64_value() const
{
    LEAKBOUND_ASSERT(is_u64(), "u64_value() on a non-integral node");
    return u64_;
}

const std::string &
JsonValue::string_value() const
{
    LEAKBOUND_ASSERT(is_string(), "string_value() on a non-string node");
    return string_;
}

const std::vector<JsonValue> &
JsonValue::array() const
{
    LEAKBOUND_ASSERT(is_array(), "array() on a non-array JSON node");
    return array_;
}

const std::vector<JsonValue::Member> &
JsonValue::object() const
{
    LEAKBOUND_ASSERT(is_object(), "object() on a non-object JSON node");
    return object_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    LEAKBOUND_ASSERT(is_object(), "find() on a non-object JSON node");
    for (const Member &member : object_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

JsonValue
JsonValue::make_null()
{
    return JsonValue();
}

JsonValue
JsonValue::make_bool(bool v)
{
    JsonValue out;
    out.kind_ = Kind::Bool;
    out.bool_ = v;
    return out;
}

JsonValue
JsonValue::make_number(double v)
{
    JsonValue out;
    out.kind_ = Kind::Number;
    out.number_ = v;
    return out;
}

JsonValue
JsonValue::make_u64(std::uint64_t v)
{
    JsonValue out;
    out.kind_ = Kind::Number;
    out.number_ = static_cast<double>(v);
    out.exact_u64_ = true;
    out.u64_ = v;
    return out;
}

JsonValue
JsonValue::make_string(std::string v)
{
    JsonValue out;
    out.kind_ = Kind::String;
    out.string_ = std::move(v);
    return out;
}

JsonValue
JsonValue::make_array(std::vector<JsonValue> v)
{
    JsonValue out;
    out.kind_ = Kind::Array;
    out.array_ = std::move(v);
    return out;
}

JsonValue
JsonValue::make_object(std::vector<Member> v)
{
    JsonValue out;
    out.kind_ = Kind::Object;
    out.object_ = std::move(v);
    return out;
}

namespace {

/**
 * Recursive-descent parser over a bounded view.  Every entry point
 * checks remaining input before consuming, and parse errors carry the
 * byte offset so protocol logs can point at the exact defect.
 */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    Expected<JsonValue> parse_document()
    {
        skip_ws();
        JsonValue root;
        if (Status s = parse_value(root, 1); !s.ok())
            return s;
        skip_ws();
        if (pos_ != text_.size())
            return fail("trailing garbage after JSON document");
        return root;
    }

  private:
    Status fail(const std::string &what) const
    {
        return Status(ErrorKind::CorruptData,
                      what + " at offset " + std::to_string(pos_));
    }

    void skip_ws()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool peek(char &c) const
    {
        if (pos_ >= text_.size())
            return false;
        c = text_[pos_];
        return true;
    }

    bool consume_literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    Status parse_value(JsonValue &out, std::size_t depth)
    {
        if (depth > kJsonMaxDepth)
            return fail("JSON nested deeper than " +
                        std::to_string(kJsonMaxDepth));
        char c;
        if (!peek(c))
            return fail("unexpected end of JSON input");
        switch (c) {
          case '{': return parse_object(out, depth);
          case '[': return parse_array(out, depth);
          case '"': {
            std::string s;
            if (Status st = parse_string(s); !st.ok())
                return st;
            out = JsonValue::make_string(std::move(s));
            return Status();
          }
          case 't':
            if (!consume_literal("true"))
                return fail("bad literal");
            out = JsonValue::make_bool(true);
            return Status();
          case 'f':
            if (!consume_literal("false"))
                return fail("bad literal");
            out = JsonValue::make_bool(false);
            return Status();
          case 'n':
            if (!consume_literal("null"))
                return fail("bad literal");
            out = JsonValue::make_null();
            return Status();
          default: return parse_number(out);
        }
    }

    Status parse_object(JsonValue &out, std::size_t depth)
    {
        ++pos_; // '{'
        std::vector<JsonValue::Member> members;
        skip_ws();
        char c;
        if (peek(c) && c == '}') {
            ++pos_;
            out = JsonValue::make_object(std::move(members));
            return Status();
        }
        for (;;) {
            skip_ws();
            std::string key;
            if (Status st = parse_string(key); !st.ok())
                return st;
            skip_ws();
            if (!peek(c) || c != ':')
                return fail("expected ':' in object");
            ++pos_;
            skip_ws();
            JsonValue value;
            if (Status st = parse_value(value, depth + 1); !st.ok())
                return st;
            members.emplace_back(std::move(key), std::move(value));
            skip_ws();
            if (!peek(c))
                return fail("unterminated object");
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == '}') {
                ++pos_;
                out = JsonValue::make_object(std::move(members));
                return Status();
            }
            return fail("expected ',' or '}' in object");
        }
    }

    Status parse_array(JsonValue &out, std::size_t depth)
    {
        ++pos_; // '['
        std::vector<JsonValue> elements;
        skip_ws();
        char c;
        if (peek(c) && c == ']') {
            ++pos_;
            out = JsonValue::make_array(std::move(elements));
            return Status();
        }
        for (;;) {
            skip_ws();
            JsonValue value;
            if (Status st = parse_value(value, depth + 1); !st.ok())
                return st;
            elements.push_back(std::move(value));
            skip_ws();
            if (!peek(c))
                return fail("unterminated array");
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                out = JsonValue::make_array(std::move(elements));
                return Status();
            }
            return fail("expected ',' or ']' in array");
        }
    }

    Status parse_string(std::string &out)
    {
        char c;
        if (!peek(c) || c != '"')
            return fail("expected string");
        ++pos_;
        out.clear();
        while (pos_ < text_.size()) {
            c = text_[pos_++];
            if (c == '"')
                return Status();
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("dangling escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                std::uint32_t code = 0;
                if (Status st = parse_hex4(code); !st.ok())
                    return st;
                if (code >= 0xd800 && code <= 0xdbff) {
                    // High surrogate: require the matching low half.
                    if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                        text_[pos_ + 1] != 'u')
                        return fail("unpaired surrogate");
                    pos_ += 2;
                    std::uint32_t low = 0;
                    if (Status st = parse_hex4(low); !st.ok())
                        return st;
                    if (low < 0xdc00 || low > 0xdfff)
                        return fail("bad low surrogate");
                    code = 0x10000 + ((code - 0xd800) << 10) +
                           (low - 0xdc00);
                } else if (code >= 0xdc00 && code <= 0xdfff) {
                    return fail("unpaired surrogate");
                }
                append_utf8(out, code);
                break;
              }
              default: return fail("bad escape character");
            }
        }
        return fail("unterminated string");
    }

    Status parse_hex4(std::uint32_t &out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            out <<= 4;
            if (h >= '0' && h <= '9')
                out |= static_cast<std::uint32_t>(h - '0');
            else if (h >= 'a' && h <= 'f')
                out |= static_cast<std::uint32_t>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                out |= static_cast<std::uint32_t>(h - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        return Status();
    }

    static void append_utf8(std::string &out, std::uint32_t code)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        }
    }

    Status parse_number(JsonValue &out)
    {
        const std::size_t start = pos_;
        bool negative = false;
        bool integral = true;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            negative = true;
            ++pos_;
        }
        auto digits = [this] {
            std::size_t n = 0;
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9') {
                ++pos_;
                ++n;
            }
            return n;
        };
        const std::size_t int_digits = digits();
        if (int_digits == 0)
            return fail("expected a JSON value");
        // JSON forbids leading zeros ("01"); strtod would accept them.
        if (int_digits > 1 && text_[start + (negative ? 1 : 0)] == '0')
            return fail("leading zero in number");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            integral = false;
            ++pos_;
            if (digits() == 0)
                return fail("digits required after decimal point");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            integral = false;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (digits() == 0)
                return fail("digits required in exponent");
        }
        const std::string token(text_.substr(start, pos_ - start));
        if (integral && !negative) {
            errno = 0;
            char *end = nullptr;
            const std::uint64_t v = std::strtoull(token.c_str(), &end, 10);
            if (errno == 0 && end && *end == '\0') {
                out = JsonValue::make_u64(v);
                return Status();
            }
        }
        errno = 0;
        char *end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end == token.c_str() || *end != '\0')
            return fail("malformed number");
        out = JsonValue::make_number(v);
        return Status();
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

Expected<JsonValue>
json_parse(std::string_view text)
{
    return JsonParser(text).parse_document();
}

} // namespace leakbound::util
