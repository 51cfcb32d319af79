#include "checks.h"

#include <algorithm>
#include <cstring>

#include "baselines/dom_eval.h"
#include "xml/dom.h"
#include "xpath/query_tree.h"

namespace perfbench {

std::string CheckSameIds(const Ids& want, const Ids& got) {
  Ids w = want;
  Ids g = got;
  std::sort(w.begin(), w.end());
  std::sort(g.begin(), g.end());
  auto dup = std::adjacent_find(g.begin(), g.end());
  if (dup != g.end()) return "id " + std::to_string(*dup) + " reported twice";
  Ids missing;
  Ids extra;
  std::set_difference(w.begin(), w.end(), g.begin(), g.end(),
                      std::back_inserter(missing));
  std::set_difference(g.begin(), g.end(), w.begin(), w.end(),
                      std::back_inserter(extra));
  std::string error;
  if (!missing.empty()) {
    error = std::to_string(missing.size()) + " ids missing (first " +
            std::to_string(missing.front()) + ")";
  }
  if (!extra.empty()) {
    Join(&error, std::to_string(extra.size()) + " unexpected ids (first " +
                     std::to_string(extra.front()) + ")");
  }
  return error;
}

std::string CheckDocumentOrder(const Ids& got) {
  for (size_t i = 1; i < got.size(); ++i) {
    if (got[i] <= got[i - 1]) {
      return "id " + std::to_string(got[i]) + " at position " +
             std::to_string(i) + " follows " + std::to_string(got[i - 1]);
    }
  }
  return "";
}

std::string CheckCount(const char* what, uint64_t want, uint64_t got) {
  if (want == got) return "";
  return std::string(what) + " is " + std::to_string(got) + ", expected " +
         std::to_string(want);
}

uint64_t CountStartTags(std::string_view xml) {
  uint64_t count = 0;
  const char* p = xml.data();
  const char* end = p + xml.size();
  while ((p = static_cast<const char*>(std::memchr(p, '<', end - p))) !=
         nullptr) {
    ++p;
    if (p < end && *p != '/' && *p != '?' && *p != '!') ++count;
  }
  return count;
}

std::vector<Ids> DomOracle(std::string_view doc,
                           const std::vector<std::string>& queries,
                           std::string* error) {
  twigm::Result<twigm::xml::DomDocument> dom =
      twigm::xml::DomDocument::Parse(doc);
  if (!dom.ok()) {
    *error = "DOM parse: " + dom.status().ToString();
    return {};
  }
  std::vector<Ids> out;
  for (const std::string& q : queries) {
    twigm::Result<twigm::xpath::QueryTree> tree =
        twigm::xpath::QueryTree::Parse(q);
    if (!tree.ok()) {
      *error = "oracle parse of " + q + ": " + tree.status().ToString();
      return {};
    }
    twigm::Result<Ids> ids =
        twigm::baselines::EvaluateOnDom(tree.value(), dom.value());
    if (!ids.ok()) {
      *error = "oracle on " + q + ": " + ids.status().ToString();
      return {};
    }
    out.push_back(std::move(ids).value());
  }
  return out;
}

void Join(std::string* all, const std::string& error) {
  if (error.empty()) return;
  if (!all->empty()) *all += "; ";
  *all += error;
}

}  // namespace perfbench
