// Output checks. Each returns an empty string when the output is right and
// a short description of the first problem otherwise, so a caller can
// count the check as one operation that failed or not.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "xml/sax_event.h"

namespace perfbench {

using Ids = std::vector<twigm::xml::NodeId>;

// `got` reports every id of `want` exactly once and nothing else. `want`
// may be in any order; duplicates in `got` fail.
std::string CheckSameIds(const Ids& want, const Ids& got);

// `got` is strictly increasing: document order, each id once.
std::string CheckDocumentOrder(const Ids& got);

// `got` == `want` for a count named `what`.
std::string CheckCount(const char* what, uint64_t want, uint64_t got);

// Start tags in well-formed XML text without comments or CDATA: every '<'
// not followed by '/', '?' or '!'. Independent of the parser under test.
uint64_t CountStartTags(std::string_view xml);

// The DOM oracle: each query's result ids on `doc`, computed by
// baselines::EvaluateOnDom, a non-streaming evaluator. On failure returns
// an empty list and sets `*error`.
std::vector<Ids> DomOracle(std::string_view doc,
                           const std::vector<std::string>& queries,
                           std::string* error);

// Appends `error` to `*all` (semicolon separated) when it is not empty.
void Join(std::string* all, const std::string& error);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
