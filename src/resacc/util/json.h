#ifndef RESACC_UTIL_JSON_H_
#define RESACC_UTIL_JSON_H_

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "resacc/util/status.h"

namespace resacc {

// The one JSON writer behind every bench record and trace file:
//   * strings are escaped per RFC 8259 (`"` and `\` get a backslash,
//     control characters become \u00XX, other bytes pass through);
//   * a finite double prints in its shortest round-trip form, and a
//     non-finite one as the string "inf", "-inf" or "nan";
//   * containers are laid out two spaces per level, with `": "` after each
//     key; an empty one prints as `{}` or `[]`.
// Calls must nest (a Key before each value inside an object, each Begin
// closed by its End); RESACC_CHECK enforces that.
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{', '}'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('[', ']'); }
  JsonWriter& EndArray() { return Close(']'); }
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view value);
  JsonWriter& Value(const char* value) {
    return Value(std::string_view(value));
  }
  JsonWriter& Value(bool value);
  JsonWriter& Value(double value);
  JsonWriter& Value(std::int64_t value);
  JsonWriter& Value(std::uint64_t value);
  template <std::integral T>
  JsonWriter& Value(T value) {
    if constexpr (std::signed_integral<T>) {
      return Value(static_cast<std::int64_t>(value));
    } else {
      return Value(static_cast<std::uint64_t>(value));
    }
  }

  // An object member: Key(key) then Value(value).
  template <typename T>
  JsonWriter& Field(std::string_view key, const T& value) {
    return Key(key).Value(value);
  }

  // The document so far; complete once every container is closed.
  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char bracket, char closer);
  JsonWriter& Close(char closer);
  // Readies out_ for the next value: after its key, or as the next item
  // of the innermost array, or as the whole document.
  void BeforeValue();
  // Starts the innermost container's next item on its own line.
  void NextItem();

  struct Level {
    char closer;
    bool empty;
  };
  std::string out_;
  std::vector<Level> levels_;
  bool after_key_ = false;
};

// Writes `text` to `path`, replacing the file. Checks the open, the write
// and the close, so a full disk or a missing directory is an error rather
// than a short file.
Status WriteTextFile(const std::string& path, std::string_view text);

}  // namespace resacc

#endif  // RESACC_UTIL_JSON_H_
