#include "disc/seq/parse.h"

#include <cctype>

#include "disc/common/check.h"

namespace disc {
namespace {

// Recursive-descent parser for the paper notation. Errors collect into
// `error` (first one wins) instead of aborting, so TryParseSequence can
// surface them as a Status while ParseSequence keeps its loud-abort
// contract.
struct SeqParser {
  const std::string& s;
  std::size_t i = 0;
  std::string error;

  bool Fail(const char* msg) {
    if (error.empty()) {
      error = std::string(msg) + " at position " + std::to_string(i);
    }
    return false;
  }

  // Skips spaces and the decorative '<' '>' characters.
  void SkipFluff() {
    while (i < s.size() &&
           (std::isspace(static_cast<unsigned char>(s[i])) || s[i] == '<' ||
            s[i] == '>')) {
      ++i;
    }
  }

  bool ParseItem(Item* out) {
    SkipFluff();
    if (i >= s.size()) return Fail("expected item");
    const char c = s[i];
    if (std::isalpha(static_cast<unsigned char>(c))) {
      ++i;
      const char lower = static_cast<char>(std::tolower(c));
      *out = static_cast<Item>(lower - 'a' + 1);
      return true;
    }
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return Fail("expected letter or integer item");
    }
    Item value = 0;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
      value = value * 10 + static_cast<Item>(s[i] - '0');
      ++i;
    }
    if (value == kNoItem) return Fail("item 0 is reserved");
    *out = value;
    return true;
  }

  bool Parse(std::vector<Itemset>* itemsets) {
    SkipFluff();
    while (i < s.size()) {
      if (s[i] != '(') return Fail("expected '('");
      ++i;
      std::vector<Item> items;
      for (;;) {
        Item item = kNoItem;
        if (!ParseItem(&item)) return false;
        items.push_back(item);
        SkipFluff();
        if (i >= s.size()) return Fail("unterminated itemset");
        if (s[i] == ',') {
          ++i;
          continue;
        }
        if (s[i] != ')') return Fail("expected ',' or ')'");
        ++i;
        break;
      }
      itemsets->emplace_back(std::move(items));
      SkipFluff();
    }
    return true;
  }
};

}  // namespace

StatusOr<Sequence> TryParseSequence(const std::string& text) {
  SeqParser parser{text, 0, {}};
  std::vector<Itemset> itemsets;
  if (!parser.Parse(&itemsets)) {
    return Status::DataLoss("cannot parse sequence '" + text +
                            "': " + parser.error);
  }
  return Sequence(itemsets);
}

Sequence ParseSequence(const std::string& text) {
  auto result = TryParseSequence(text);
  DISC_CHECK_MSG(result.ok(), result.status().message().c_str());
  return std::move(*result);
}

SequenceDatabase MakeDatabase(const std::vector<std::string>& lines) {
  SequenceDatabase db;
  for (const std::string& line : lines) db.Add(ParseSequence(line));
  return db;
}

}  // namespace disc
