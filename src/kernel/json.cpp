#include "kernel/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace jsk::kernel::json {

namespace {

class parser {
public:
    explicit parser(const std::string& text) : text_(text) {}

    value parse_document()
    {
        skip_ws();
        value v = parse_value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters after JSON value");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& what) const { throw parse_error(what, pos_); }

    void skip_ws()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char peek() const
    {
        if (pos_ >= text_.size()) throw parse_error("unexpected end of input", pos_);
        return text_[pos_];
    }

    char next()
    {
        const char c = peek();
        ++pos_;
        return c;
    }

    void expect(char c)
    {
        if (next() != c) {
            --pos_;
            fail(std::string("expected '") + c + "'");
        }
    }

    bool consume_literal(const char* literal)
    {
        const std::size_t len = std::char_traits<char>::length(literal);
        if (text_.compare(pos_, len, literal) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    value parse_value()
    {
        skip_ws();
        const char c = peek();
        switch (c) {
            case '{':
            case '[': {
                if (depth_ == max_depth) {
                    fail("nesting deeper than " + std::to_string(max_depth) + " levels");
                }
                ++depth_;
                value v = c == '{' ? parse_object() : parse_array();
                --depth_;
                return v;
            }
            case '"': return value{parse_string()};
            case 't':
                if (consume_literal("true")) return value{true};
                fail("invalid literal");
            case 'f':
                if (consume_literal("false")) return value{false};
                fail("invalid literal");
            case 'n':
                if (consume_literal("null")) return value{nullptr};
                fail("invalid literal");
            default: return parse_number();
        }
    }

    value parse_object()
    {
        expect('{');
        object out;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return value{std::move(out)};
        }
        while (true) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            value v = parse_value();
            if (out.contains(key)) fail("duplicate key: " + key);
            out.emplace(std::move(key), std::move(v));
            skip_ws();
            const char c = next();
            if (c == '}') break;
            if (c != ',') {
                --pos_;
                fail("expected ',' or '}' in object");
            }
        }
        return value{std::move(out)};
    }

    value parse_array()
    {
        expect('[');
        array out;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return value{std::move(out)};
        }
        while (true) {
            out.push_back(parse_value());
            skip_ws();
            const char c = next();
            if (c == ']') break;
            if (c != ',') {
                --pos_;
                fail("expected ',' or ']' in array");
            }
        }
        return value{std::move(out)};
    }

    std::string parse_string()
    {
        expect('"');
        std::string out;
        while (true) {
            const char c = next();
            if (c == '"') break;
            if (c == '\\') {
                const char esc = next();
                switch (esc) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'n': out += '\n'; break;
                    case 't': out += '\t'; break;
                    case 'r': out += '\r'; break;
                    case 'b': out += '\b'; break;
                    case 'f': out += '\f'; break;
                    case 'u': append_utf8(out, parse_codepoint()); break;
                    default: fail("unsupported escape sequence");
                }
            } else {
                out += c;
            }
        }
        return out;
    }

    /// The code point of a \uXXXX escape (the 'u' already consumed),
    /// combining UTF-16 surrogate pairs.
    std::uint32_t parse_codepoint()
    {
        std::uint32_t cp = parse_hex4();
        if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
                fail("unpaired UTF-16 surrogate");
            }
            pos_ += 2;
            const std::uint32_t low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired UTF-16 surrogate");
        }
        return cp;
    }

    std::uint32_t parse_hex4()
    {
        std::uint32_t cp = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = next();
            cp <<= 4;
            if (c >= '0' && c <= '9') cp |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f') cp |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F') cp |= static_cast<std::uint32_t>(c - 'A' + 10);
            else fail("invalid \\u escape");
        }
        return cp;
    }

    static void append_utf8(std::string& out, std::uint32_t cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    value parse_number()
    {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
                text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
            fail("invalid number");
        }
        const std::string token = text_.substr(start, pos_ - start);
        char* end = nullptr;
        const double d = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0') fail("invalid number: " + token);
        return value{d};
    }

    const std::string& text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;  // open arrays/objects
};

}  // namespace

value parse(const std::string& text) { return parser(text).parse_document(); }

namespace {

void append_escaped(std::string& out, const std::string& s)
{
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
}

void dump_into(std::string& out, const value& v)
{
    if (v.is_null()) {
        out += "null";
    } else if (v.is_bool()) {
        out += v.as_bool() ? "true" : "false";
    } else if (v.is_number()) {
        const double d = v.as_number();
        char buf[64];
        // Exact integers (counter values) print without a fraction.
        if (d == static_cast<double>(static_cast<long long>(d)) && d >= -9.0e15 &&
            d <= 9.0e15) {
            std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
        } else {
            std::snprintf(buf, sizeof(buf), "%.17g", d);
        }
        out += buf;
    } else if (v.is_string()) {
        out += '"';
        append_escaped(out, v.as_string());
        out += '"';
    } else if (v.is_array()) {
        out += '[';
        const array& a = v.as_array();
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (i > 0) out += ',';
            dump_into(out, a[i]);
        }
        out += ']';
    } else {
        out += '{';
        bool first = true;
        for (const auto& [key, field] : v.as_object()) {
            if (!first) out += ',';
            first = false;
            out += '"';
            append_escaped(out, key);
            out += "\":";
            dump_into(out, field);
        }
        out += '}';
    }
}

}  // namespace

std::string dump(const value& v)
{
    std::string out;
    dump_into(out, v);
    return out;
}

}  // namespace jsk::kernel::json
