// A minimal JSON reader for policy specifications.
//
// The paper represents security policies in JSON (§II-B). This is a small,
// dependency-free parser covering the subset policies need: objects, arrays,
// strings, numbers, booleans and null. Strict enough to reject malformed
// input with a useful message; not a general-purpose JSON library.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace jsk::kernel::json {

class value;

using array = std::vector<value>;
using object = std::map<std::string, value>;

class value {
public:
    using storage =
        std::variant<std::nullptr_t, bool, double, std::string, std::shared_ptr<array>,
                     std::shared_ptr<object>>;

    value() : v_(nullptr) {}
    value(std::nullptr_t) : v_(nullptr) {}
    value(bool b) : v_(b) {}
    value(double d) : v_(d) {}
    value(std::string s) : v_(std::move(s)) {}
    value(array a) : v_(std::make_shared<array>(std::move(a))) {}
    value(object o) : v_(std::make_shared<object>(std::move(o))) {}

    [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
    [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(v_); }
    [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(v_); }
    [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(v_); }
    [[nodiscard]] bool is_array() const
    {
        return std::holds_alternative<std::shared_ptr<array>>(v_);
    }
    [[nodiscard]] bool is_object() const
    {
        return std::holds_alternative<std::shared_ptr<object>>(v_);
    }

    [[nodiscard]] bool as_bool() const { return std::get<bool>(v_); }
    [[nodiscard]] double as_number() const { return std::get<double>(v_); }
    [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(v_); }
    [[nodiscard]] const array& as_array() const { return *std::get<std::shared_ptr<array>>(v_); }
    [[nodiscard]] const object& as_object() const
    {
        return *std::get<std::shared_ptr<object>>(v_);
    }

    /// Object field access; returns null for missing keys / non-objects.
    [[nodiscard]] value get(const std::string& key) const
    {
        if (!is_object()) return value{};
        auto it = as_object().find(key);
        return it == as_object().end() ? value{} : it->second;
    }

    /// String field with default.
    [[nodiscard]] std::string get_string(const std::string& key,
                                         const std::string& fallback = {}) const
    {
        const value v = get(key);
        return v.is_string() ? v.as_string() : fallback;
    }

private:
    storage v_;
};

/// Parse error with position information.
class parse_error : public std::runtime_error {
public:
    parse_error(const std::string& what, std::size_t offset)
        : std::runtime_error(what + " (at offset " + std::to_string(offset) + ")"),
          offset_(offset)
    {
    }
    [[nodiscard]] std::size_t offset() const { return offset_; }

private:
    std::size_t offset_;
};

/// Deepest array/object nesting parse() accepts. A container past the cap
/// throws parse_error at its offset instead of recursing off the stack.
inline constexpr std::size_t max_depth = 256;

/// Parse a complete JSON document; trailing non-whitespace is an error.
value parse(const std::string& text);

/// Serialize a value back to compact JSON. Deterministic: objects iterate in
/// std::map key order, numbers that hold exact integers print without a
/// fraction, and everything else uses round-trip %.17g — identical values
/// dump identical bytes (the jsk::obs metrics snapshot relies on this).
std::string dump(const value& v);

}  // namespace jsk::kernel::json
