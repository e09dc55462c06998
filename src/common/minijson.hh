/**
 * @file
 * Strict recursive-descent JSON parser for the documents this repo
 * produces itself: sweep manifests, store payloads, golden-stats
 * files, and trace exports under test. Small
 * on purpose: it accepts exactly RFC 8259 JSON and throws
 * std::runtime_error (with a byte offset) on the first deviation, so
 * a malformed document fails loudly instead of being half-accepted
 * the way lenient viewers would.
 */

#ifndef VSV_COMMON_MINIJSON_HH
#define VSV_COMMON_MINIJSON_HH

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace vsv
{
namespace minijson
{

struct Value;
using Array = std::vector<Value>;
/** Object members, sorted by key (std::map) - write() emits them in
 *  this order, so serialization is deterministic by construction. */
using Object = std::map<std::string, Value>;

/**
 * One parsed JSON value: null, bool, number, string, array, or
 * object. Numbers are always double (RFC 8259 does not distinguish
 * integers); integers up to 2^53 round-trip exactly. The is*()
 * predicates never throw; the accessors (object()/array()/str()/
 * num()/at()) throw std::bad_variant_access or std::runtime_error on
 * a type mismatch, so a document of the wrong shape fails loudly at
 * the point of use.
 */
struct Value
{
    std::variant<std::nullptr_t, bool, double, std::string, Array,
                 Object>
        v = nullptr;

    bool isObject() const { return std::holds_alternative<Object>(v); }
    bool isArray() const { return std::holds_alternative<Array>(v); }
    bool isString() const
    {
        return std::holds_alternative<std::string>(v);
    }
    bool isNumber() const { return std::holds_alternative<double>(v); }

    const Object &object() const { return std::get<Object>(v); }
    const Array &array() const { return std::get<Array>(v); }
    const std::string &str() const { return std::get<std::string>(v); }
    double num() const { return std::get<double>(v); }

    /** Object member access; throws when absent or not an object. */
    const Value &
    at(const std::string &key) const
    {
        const Object &o = object();
        const auto it = o.find(key);
        if (it == o.end())
            throw std::runtime_error("missing key: " + key);
        return it->second;
    }

    /** True iff this is an object with member `key` (never throws). */
    bool
    has(const std::string &key) const
    {
        return isObject() && object().count(key) > 0;
    }
};

/**
 * The recursive-descent parser behind parse(). Accepts exactly one
 * RFC 8259 value followed by optional whitespace; anything else -
 * trailing content, comments, unquoted keys, leading '+', NaN/Inf
 * literals, raw control characters, non-ASCII \\u escapes, arrays and
 * objects nested deeper than maxDepth - throws std::runtime_error
 * naming the byte offset. Construct with the text (kept by reference;
 * must outlive the Parser) and call parse() once.
 */
class Parser
{
  public:
    /**
     * Nesting limit. The documents this repo writes nest under ten
     * levels; the cap keeps the recursion (and the recursive Value
     * destructor) bounded on hostile input such as a store payload
     * of 100 000 '['.
     */
    static constexpr std::size_t maxDepth = 256;

    explicit Parser(const std::string &text) : text(text) {}

    Value
    parse()
    {
        Value v = parseValue();
        skipWs();
        if (pos != text.size())
            fail("trailing content");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("minijson: " + what + " at byte " +
                                 std::to_string(pos));
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            ++pos;
        }
    }

    char
    peek()
    {
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    void
    literal(const char *word, std::size_t len)
    {
        if (text.compare(pos, len, word) != 0)
            fail("bad literal");
        pos += len;
    }

    Value
    parseValue()
    {
        skipWs();
        switch (peek()) {
          case '{':
          case '[': {
            if (++depth > maxDepth) {
                fail("nesting deeper than " + std::to_string(maxDepth) +
                     " levels");
            }
            Value v = text[pos] == '{' ? parseObject() : parseArray();
            --depth;
            return v;
          }
          case '"':
            return Value{parseString()};
          case 't':
            literal("true", 4);
            return Value{true};
          case 'f':
            literal("false", 5);
            return Value{false};
          case 'n':
            literal("null", 4);
            return Value{nullptr};
          default:
            return Value{parseNumber()};
        }
    }

    Value
    parseObject()
    {
        expect('{');
        Object out;
        skipWs();
        if (peek() == '}') {
            ++pos;
            return Value{std::move(out)};
        }
        while (true) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            out.emplace(std::move(key), parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return Value{std::move(out)};
        }
    }

    Value
    parseArray()
    {
        expect('[');
        Array out;
        skipWs();
        if (peek() == ']') {
            ++pos;
            return Value{std::move(out)};
        }
        while (true) {
            out.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return Value{std::move(out)};
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= text.size())
                fail("unterminated string");
            const char c = text[pos++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                fail("unterminated escape");
            const char esc = text[pos++];
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
                if (pos + 4 > text.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                // The exporter only escapes ASCII control characters;
                // reject anything a trace document never contains.
                if (code > 0x7f)
                    fail("non-ASCII \\u escape");
                out += static_cast<char>(code);
                break;
              }
              default:
                fail("bad escape character");
            }
        }
    }

    double
    parseNumber()
    {
        const std::size_t begin = pos;
        if (peek() == '-')
            ++pos;
        if (!std::isdigit(static_cast<unsigned char>(peek())))
            fail("bad number");
        if (text[pos] == '0') {
            ++pos;
        } else {
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            if (pos >= text.size() ||
                !std::isdigit(static_cast<unsigned char>(text[pos])))
                fail("bad fraction");
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        if (pos < text.size() &&
            (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            if (pos >= text.size() ||
                !std::isdigit(static_cast<unsigned char>(text[pos])))
                fail("bad exponent");
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        return std::strtod(text.c_str() + begin, nullptr);
    }

    const std::string &text;
    std::size_t pos = 0;
    std::size_t depth = 0;  ///< arrays/objects open at pos
};

/**
 * Parse one complete JSON document; throws std::runtime_error (with
 * the byte offset of the first deviation) on anything that is not
 * exactly RFC 8259.
 */
inline Value
parse(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace minijson
} // namespace vsv

#endif // VSV_COMMON_MINIJSON_HH
