#include "resacc/util/json.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "resacc/util/check.h"

namespace resacc {
namespace {

void AppendQuoted(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

template <typename T>
void AppendNumber(std::string& out, T value) {
  char buf[32];
  const std::to_chars_result result = std::to_chars(buf, buf + 32, value);
  RESACC_CHECK(result.ec == std::errc());
  out.append(buf, result.ptr);
}

}  // namespace

void JsonWriter::NextItem() {
  if (!levels_.back().empty) out_ += ',';
  levels_.back().empty = false;
  out_ += '\n';
  out_.append(2 * levels_.size(), ' ');
}

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
  } else if (levels_.empty()) {
    RESACC_CHECK(out_.empty());  // one top-level value per document
  } else {
    RESACC_CHECK(levels_.back().closer == ']');  // object members need keys
    NextItem();
  }
}

JsonWriter& JsonWriter::Open(char bracket, char closer) {
  BeforeValue();
  out_ += bracket;
  levels_.push_back(Level{closer, true});
  return *this;
}

JsonWriter& JsonWriter::Close(char closer) {
  RESACC_CHECK(!levels_.empty() && levels_.back().closer == closer &&
               !after_key_);
  const bool empty = levels_.back().empty;
  levels_.pop_back();
  if (!empty) {
    out_ += '\n';
    out_.append(2 * levels_.size(), ' ');
  }
  out_ += closer;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  RESACC_CHECK(!levels_.empty() && levels_.back().closer == '}' &&
               !after_key_);
  NextItem();
  AppendQuoted(out_, key);
  out_ += ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view value) {
  BeforeValue();
  AppendQuoted(out_, value);
  return *this;
}

JsonWriter& JsonWriter::Value(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Value(double value) {
  if (std::isnan(value)) return Value("nan");
  if (std::isinf(value)) return Value(value > 0.0 ? "inf" : "-inf");
  BeforeValue();
  AppendNumber(out_, value);
  return *this;
}

JsonWriter& JsonWriter::Value(std::int64_t value) {
  BeforeValue();
  AppendNumber(out_, value);
  return *this;
}

JsonWriter& JsonWriter::Value(std::uint64_t value) {
  BeforeValue();
  AppendNumber(out_, value);
  return *this;
}

Status WriteTextFile(const std::string& path, std::string_view text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open " + path +
                                   " for write: " + std::strerror(errno));
  }
  const bool written =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  const bool closed = std::fclose(file) == 0;  // flushes the buffered tail
  if (!written || !closed) {
    return Status::Internal("cannot write " + path + ": " +
                            std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace resacc
