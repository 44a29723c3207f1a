// Documentation-consistency checks (the docs-consistency CI job):
//  - every relative markdown link in the curated docs resolves to a file,
//  - every ```sql block in docs/rule_language.md parses, and its rules
//    survive a print -> parse -> print round trip,
//  - the fuzz_driver flag table in docs/fuzzing.md and the --help text
//    both match FuzzDriverFlags(), the single source of truth,
//  - likewise the ruled flag table in docs/service.md against
//    RuledFlags(), and its resource-bounds table against the constants
//    in src/,
//  - the README tool table against the add_executable() names in
//    tools/CMakeLists.txt,
//  - the worked /stats example in docs/observability.md is valid JSON
//    with the snapshot's section shape,
//  - the explorer.* metric names in docs/observability.md and the ones
//    the code emits are the same set.
// The repo root comes from the STARBURST_REPO_DIR compile definition set
// in tests/CMakeLists.txt (same pattern as corpus_test).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "rulelang/parser.h"
#include "rulelang/printer.h"
#include "service/server.h"
#include "testing/fuzzer.h"
#include "json_lint.h"

namespace starburst {
namespace {

namespace fs = std::filesystem;

/// The documents under the consistency contract. Deliberately a curated
/// list: generated / reference files (PAPERS.md, SNIPPETS.md) may quote
/// arbitrary text that only looks like markdown links.
const std::vector<std::string>& CheckedDocs() {
  static const std::vector<std::string>* docs = new std::vector<std::string>{
      "README.md",
      "DESIGN.md",
      "EXPERIMENTS.md",
      "docs/architecture.md",
      "docs/analysis_guide.md",
      "docs/fuzzing.md",
      "docs/observability.md",
      "docs/rule_language.md",
      "docs/service.md",
  };
  return *docs;
}

std::string ReadDoc(const std::string& relative) {
  fs::path path = fs::path(STARBURST_REPO_DIR) / relative;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Lines of `text` outside ``` fences (link syntax inside code blocks is
/// code, not a link).
std::vector<std::string> ProseLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  bool in_fence = false;
  while (std::getline(in, line)) {
    if (line.rfind("```", 0) == 0) {
      in_fence = !in_fence;
      continue;
    }
    if (!in_fence) lines.push_back(line);
  }
  return lines;
}

/// Extracts inline markdown link targets `[text](target)` from one line.
std::vector<std::string> LinkTargets(const std::string& line) {
  std::vector<std::string> targets;
  for (size_t open = line.find('['); open != std::string::npos;
       open = line.find('[', open + 1)) {
    size_t close = line.find(']', open);
    if (close == std::string::npos) break;
    if (close + 1 >= line.size() || line[close + 1] != '(') continue;
    size_t end = line.find(')', close + 2);
    if (end == std::string::npos) continue;
    targets.push_back(line.substr(close + 2, end - close - 2));
  }
  return targets;
}

TEST(DocsTest, RelativeMarkdownLinksResolve) {
  for (const std::string& doc : CheckedDocs()) {
    fs::path doc_dir = (fs::path(STARBURST_REPO_DIR) / doc).parent_path();
    for (const std::string& line : ProseLines(ReadDoc(doc))) {
      for (std::string target : LinkTargets(line)) {
        if (target.rfind("http://", 0) == 0 ||
            target.rfind("https://", 0) == 0 ||
            target.rfind("mailto:", 0) == 0 || target.rfind("#", 0) == 0) {
          continue;
        }
        if (size_t hash = target.find('#'); hash != std::string::npos) {
          target = target.substr(0, hash);
        }
        EXPECT_TRUE(fs::exists(doc_dir / target))
            << doc << ": broken link '" << target << "' in line: " << line;
      }
    }
  }
}

std::vector<std::string> SqlBlocks(const std::string& text) {
  std::vector<std::string> blocks;
  std::istringstream in(text);
  std::string line;
  bool in_sql = false;
  std::string current;
  while (std::getline(in, line)) {
    if (line.rfind("```", 0) == 0) {
      if (in_sql) {
        blocks.push_back(current);
        current.clear();
      }
      in_sql = line.rfind("```sql", 0) == 0;
      continue;
    }
    if (in_sql) current += line + "\n";
  }
  return blocks;
}

TEST(DocsTest, RuleLanguageSqlSnippetsParseAndRoundTrip) {
  std::vector<std::string> blocks =
      SqlBlocks(ReadDoc("docs/rule_language.md"));
  ASSERT_GE(blocks.size(), 2u) << "expected at least DDL + worked example";
  for (size_t i = 0; i < blocks.size(); ++i) {
    Result<Script> parsed = Parser::ParseScript(blocks[i]);
    ASSERT_TRUE(parsed.ok())
        << "docs/rule_language.md sql block " << i << " does not parse: "
        << parsed.status().ToString() << "\n"
        << blocks[i];
    // print -> parse -> print must be a fixpoint (the printer contract the
    // round_trip fuzz oracle checks on generated sets).
    std::string printed = ScriptToString(parsed.value());
    Result<Script> reparsed = Parser::ParseScript(printed);
    ASSERT_TRUE(reparsed.ok())
        << "printed form of block " << i << " does not reparse:\n"
        << printed;
    EXPECT_EQ(ScriptToString(reparsed.value()), printed)
        << "block " << i << " is not a print->parse->print fixpoint";
  }
}

TEST(DocsTest, FuzzDriverHelpMentionsEveryFlag) {
  std::string usage = fuzzing::FuzzDriverUsage();
  for (const fuzzing::FuzzDriverFlag& flag : fuzzing::FuzzDriverFlags()) {
    EXPECT_NE(usage.find(flag.name), std::string::npos)
        << "--help does not mention " << flag.name;
  }
  // And every oracle, so --oracle is discoverable from --help alone.
  for (fuzzing::OracleId oracle : fuzzing::AllOracles()) {
    EXPECT_NE(usage.find(fuzzing::OracleName(oracle)), std::string::npos)
        << "--help does not mention oracle " << fuzzing::OracleName(oracle);
  }
}

TEST(DocsTest, FuzzingDocFlagTableMatchesFuzzDriverFlags) {
  std::string doc = ReadDoc("docs/fuzzing.md");
  std::set<std::string> in_code;
  for (const fuzzing::FuzzDriverFlag& flag : fuzzing::FuzzDriverFlags()) {
    in_code.insert(flag.name);
  }
  // The doc's flag table: rows of the form "| `--flag` | ... |".
  std::set<std::string> in_doc;
  std::istringstream in(doc);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| `--", 0) != 0) continue;
    size_t end = line.find('`', 3);
    ASSERT_NE(end, std::string::npos) << line;
    in_doc.insert(line.substr(3, end - 3));
  }
  EXPECT_EQ(in_doc, in_code)
      << "docs/fuzzing.md flag table and FuzzDriverFlags() disagree";
}

TEST(DocsTest, ObservabilityDocCoversEnvVarsAndTools) {
  std::string doc = ReadDoc("docs/observability.md");
  for (const char* needle :
       {"STARBURST_METRICS", "STARBURST_TRACE", "STARBURST_NO_METRICS",
        "STARBURST_NO_TRACE", "stats_report", "--metrics-json",
        "CountersToJson", "metrics.dropped",
        // The service surface added by docs/service.md's daemon.
        "service.requests", "service.request_us", "service.queue_depth",
        "/stats", "--from-url"}) {
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/observability.md does not mention " << needle;
  }
  std::string arch = ReadDoc("docs/architecture.md");
  EXPECT_NE(arch.find("STARBURST_THREADS"), std::string::npos);
}

TEST(DocsTest, RuledHelpMentionsEveryFlag) {
  std::string usage = service::RuledUsage();
  for (const service::RuledFlag& flag : service::RuledFlags()) {
    EXPECT_NE(usage.find(flag.name), std::string::npos)
        << "ruled --help does not mention " << flag.name;
  }
}

TEST(DocsTest, ServiceDocFlagTableMatchesRuledFlags) {
  std::string doc = ReadDoc("docs/service.md");
  std::set<std::string> in_code;
  for (const service::RuledFlag& flag : service::RuledFlags()) {
    in_code.insert(flag.name);
  }
  // Rows of the form "| `--flag ARG` | ... |": the flag name is the
  // backticked text up to the first space.
  std::set<std::string> in_doc;
  std::istringstream in(doc);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| `--", 0) != 0) continue;
    size_t end = line.find('`', 3);
    ASSERT_NE(end, std::string::npos) << line;
    std::string name = line.substr(3, end - 3);
    if (size_t space = name.find(' '); space != std::string::npos) {
      name = name.substr(0, space);
    }
    in_doc.insert(name);
  }
  EXPECT_EQ(in_doc, in_code)
      << "docs/service.md flag table and RuledFlags() disagree";
}

TEST(DocsTest, ServiceDocCoversEveryErrorCode) {
  std::string doc = ReadDoc("docs/service.md");
  for (const char* code :
       {"invalid_argument", "parse_error", "semantic_error", "bad_request",
        "not_found", "method_not_allowed", "conflict", "execution_error",
        "limit_exceeded", "internal", "overloaded"}) {
    EXPECT_NE(doc.find(code), std::string::npos)
        << "docs/service.md error-code table does not mention " << code;
  }
  // And the endpoints, so the spec cannot silently fall behind the router.
  for (const char* endpoint :
       {"/healthz", "/stats", "/v1/tenants", "transition", "analyze",
        "certify", "witness"}) {
    EXPECT_NE(doc.find(endpoint), std::string::npos)
        << "docs/service.md does not mention endpoint " << endpoint;
  }
}

// Every row of docs/service.md's resource-bounds table names a constant
// and its initializer; `name = value` must appear in some file of src/.
TEST(DocsTest, ServiceDocBoundsTableMatchesSource) {
  std::string sources;
  for (const auto& entry :
       fs::recursive_directory_iterator(fs::path(STARBURST_REPO_DIR) / "src")) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    sources += buffer.str();
  }
  std::string doc = ReadDoc("docs/service.md");
  size_t begin = doc.find("### Resource bounds");
  ASSERT_NE(begin, std::string::npos);
  std::istringstream in(doc.substr(begin, doc.find("\n## ", begin) - begin));
  std::regex row(R"(^\| `([A-Za-z_]+)` \| `([^`]+)` \|)");
  int rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::smatch match;
    if (!std::regex_search(line, match, row)) continue;
    ++rows;
    std::string definition = match[1].str() + " = " + match[2].str();
    EXPECT_NE(sources.find(definition), std::string::npos)
        << "docs/service.md bounds table: no '" << definition << "' in src/";
  }
  EXPECT_GE(rows, 8) << "bounds table rows not found";
}

TEST(DocsTest, ReadmeToolTableMatchesToolsCMake) {
  // The tools that actually build: add_executable(NAME ...) in
  // tools/CMakeLists.txt.
  std::string cmake = ReadDoc("tools/CMakeLists.txt");
  std::set<std::string> built;
  const std::string needle = "add_executable(";
  for (size_t at = cmake.find(needle); at != std::string::npos;
       at = cmake.find(needle, at + 1)) {
    size_t start = at + needle.size();
    size_t end = cmake.find_first_of(" )", start);
    ASSERT_NE(end, std::string::npos);
    built.insert(cmake.substr(start, end - start));
  }
  ASSERT_FALSE(built.empty());

  // The README's "### Command-line tools" table rows: "| `tool` | ... |".
  std::string readme = ReadDoc("README.md");
  size_t section = readme.find("### Command-line tools");
  ASSERT_NE(section, std::string::npos)
      << "README.md lost its Command-line tools section";
  size_t section_end = readme.find("\n## ", section);
  if (section_end == std::string::npos) section_end = readme.size();
  std::set<std::string> documented;
  std::istringstream in(readme.substr(section, section_end - section));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    size_t end = line.find('`', 3);
    ASSERT_NE(end, std::string::npos) << line;
    documented.insert(line.substr(3, end - 3));
  }
  EXPECT_EQ(documented, built)
      << "README.md tool table and tools/CMakeLists.txt disagree";
}

std::vector<std::string> JsonBlocks(const std::string& text) {
  std::vector<std::string> blocks;
  std::istringstream in(text);
  std::string line;
  bool in_json = false;
  std::string current;
  while (std::getline(in, line)) {
    if (line.rfind("```", 0) == 0) {
      if (in_json) {
        blocks.push_back(current);
        current.clear();
      }
      in_json = line.rfind("```json", 0) == 0;
      continue;
    }
    if (in_json) current += line + "\n";
  }
  return blocks;
}

/// Every capture of `pattern`'s first group in `text`.
std::set<std::string> Captures(const std::string& text,
                               const std::regex& pattern) {
  std::set<std::string> out;
  for (std::sregex_iterator it(text.begin(), text.end(), pattern), end;
       it != end; ++it) {
    out.insert((*it)[1].str());
  }
  return out;
}

// The explorer's metric catalog cannot go stale in either direction:
// every "explorer.*" metric src/rules/explorer.cc emits has a backticked
// entry in docs/observability.md (a table row, or the gauge list), and
// every explorer.* name the doc lists is still emitted somewhere in src/
// (the witness counters live in src/analysis/witness.cc).
TEST(DocsTest, ObservabilityDocMatchesExplorerMetrics) {
  const std::regex literal("\"(explorer\\.[a-z_.]+)\"");
  const std::set<std::string> emitted_by_explorer =
      Captures(ReadDoc("src/rules/explorer.cc"), literal);
  ASSERT_FALSE(emitted_by_explorer.empty());
  std::set<std::string> emitted;
  const fs::path src = fs::path(STARBURST_REPO_DIR) / "src";
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".cc" && ext != ".h") continue;
    std::set<std::string> found = Captures(
        ReadDoc(fs::relative(entry.path(), STARBURST_REPO_DIR).string()),
        literal);
    emitted.insert(found.begin(), found.end());
  }
  const std::set<std::string> documented =
      Captures(ReadDoc("docs/observability.md"),
               std::regex("`(explorer\\.[a-z_.]+)`"));
  for (const std::string& name : emitted_by_explorer) {
    EXPECT_EQ(documented.count(name), 1u)
        << name << " is emitted by src/rules/explorer.cc but has no entry "
        << "in docs/observability.md";
  }
  for (const std::string& name : documented) {
    EXPECT_EQ(emitted.count(name), 1u)
        << name << " is listed in docs/observability.md but nothing in "
        << "src/ emits it";
  }
}

TEST(DocsTest, ObservabilityStatsExampleHasSnapshotShape) {
  std::vector<std::string> blocks =
      JsonBlocks(ReadDoc("docs/observability.md"));
  bool found = false;
  for (const std::string& block : blocks) {
    if (block.find("\"service\"") == std::string::npos) continue;
    found = true;
    EXPECT_TRUE(testing::IsValidJson(block))
        << "the /stats example is not valid JSON:\n" << block;
    // The exact section shape StatsJson produces: service summary first,
    // then the three MetricsToJson sections.
    for (const char* key : {"\"service\"", "\"counters\"", "\"gauges\"",
                            "\"histograms\"", "\"tenants\"",
                            "\"pool_threads\"", "\"service.requests\"",
                            "\"service.request_us\""}) {
      EXPECT_NE(block.find(key), std::string::npos)
          << "the /stats example lost " << key;
    }
  }
  EXPECT_TRUE(found)
      << "docs/observability.md has no worked /stats example json block";
}

}  // namespace
}  // namespace starburst
