// Text parsing of sequences in the paper's notation.
//
// Grammar (whitespace insensitive):
//   sequence := '<'? itemset+ '>'?
//   itemset  := '(' item (',' item)* ')'
//   item     := letter | integer
// Letters map a..z -> 1..26, matching the paper's examples; integers are
// taken verbatim.
//
// TryParseSequence is the recoverable entry point (kDataLoss on malformed
// text); the other parsers abort on malformed input — they exist for
// tests, examples, and literals in code, where failing loudly is correct.
#ifndef DISC_SEQ_PARSE_H_
#define DISC_SEQ_PARSE_H_

#include <string>
#include <vector>

#include "disc/common/status.h"
#include "disc/seq/database.h"
#include "disc/seq/sequence.h"

namespace disc {

/// Parses a single sequence, e.g. "<(a,e,g)(b)(h)>" or "(1,5)(2)".
/// Malformed text returns kDataLoss with a position diagnostic.
StatusOr<Sequence> TryParseSequence(const std::string& text);

/// Parses a single sequence; aborts on malformed input.
Sequence ParseSequence(const std::string& text);

/// Convenience: parses several sequence literals into a database.
SequenceDatabase MakeDatabase(const std::vector<std::string>& lines);

}  // namespace disc

#endif  // DISC_SEQ_PARSE_H_
