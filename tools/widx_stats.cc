/**
 * @file
 * Stats-scrape CLI for the TCP front-end: sends one Stats frame to a
 * running index server, structurally validates the Prometheus text
 * exposition that comes back, and prints it to stdout.
 *
 * Exit status is the point: 0 only for a well-formed, non-empty
 * exposition — the CI scrape step runs this against a live
 * `example_index_server --serve` and fails the build on a malformed
 * or empty payload, so the exposition format is pinned by CI, not
 * just by the unit golden test.
 *
 *   widx_stats --port 9077 [--host 127.0.0.1] [--quiet]
 *
 * Validation is structural, not schema-bound: every non-comment line
 * must parse as `name{labels} value`, every sample must belong to a
 * family announced by a preceding `# TYPE`, histogram families must
 * close with a `+Inf` bucket and monotone cumulative counts, no
 * series (sample name plus label set) may appear twice, and at
 * least one `widx_`-prefixed family must be present. A repeated
 * series is a fact exported twice: the registry merges same-name
 * families, so a counter kept both in a handle and in a collector
 * shows up exactly that way. New metrics never break the tool;
 * format regressions always do.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/client.hh"

namespace {

bool
validName(std::string_view s)
{
    if (s.empty())
        return false;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        const bool ok = std::isalpha(static_cast<unsigned char>(c)) ||
                        c == '_' || c == ':' ||
                        (i > 0 && std::isdigit(
                                      static_cast<unsigned char>(c)));
        if (!ok)
            return false;
    }
    return true;
}

/** Parse one sample line; returns false on any structural violation.
 *  On success `name` is the sample name, `series` the name plus the
 *  label set in canonical (sorted) form, `le`/`hasLe` carry a
 *  histogram bucket bound, and `value` the sample value. */
bool
parseSampleLine(const std::string &line, std::string &name,
                std::string &series, bool &hasLe, double &le,
                double &value)
{
    hasLe = false;
    std::vector<std::pair<std::string, std::string>> labels;
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ')
        ++i;
    name = line.substr(0, i);
    if (!validName(name))
        return false;
    if (i < line.size() && line[i] == '{') {
        // Walk the label list respecting quoted values ('\\' escapes).
        ++i;
        while (i < line.size() && line[i] != '}') {
            std::size_t eq = line.find('=', i);
            if (eq == std::string::npos || eq + 1 >= line.size() ||
                line[eq + 1] != '"')
                return false;
            const std::string lname = line.substr(i, eq - i);
            if (!validName(lname))
                return false;
            std::size_t j = eq + 2;
            std::string lval;
            while (j < line.size() && line[j] != '"') {
                if (line[j] == '\\') {
                    if (j + 1 >= line.size())
                        return false;
                    ++j;
                }
                lval += line[j++];
            }
            if (j >= line.size())
                return false; // unterminated value
            if (lname == "le") {
                hasLe = true;
                le = lval == "+Inf"
                         ? std::numeric_limits<double>::infinity()
                         : std::strtod(lval.c_str(), nullptr);
            }
            // Keyed by the value as written (still escaped), so two
            // distinct values can never collide.
            labels.emplace_back(lname, line.substr(eq + 2, j - eq - 2));
            ++j; // closing quote
            if (j < line.size() && line[j] == ',')
                ++j;
            i = j;
        }
        if (i >= line.size())
            return false; // unterminated label list
        ++i;              // '}'
    }
    if (i >= line.size() || line[i] != ' ')
        return false;
    std::sort(labels.begin(), labels.end());
    series = name;
    for (const auto &[k, v] : labels)
        series += "\n" + k + "=" + v; // no line holds a raw '\n'
    const char *start = line.c_str() + i + 1;
    char *end = nullptr;
    value = std::strtod(start, &end);
    return end != start && *end == '\0';
}

/** Structural exposition check (see file comment). Returns an empty
 *  string when valid, else a description of the first violation. */
std::string
validateExposition(const std::string &text)
{
    if (text.empty())
        return "empty exposition";
    if (text.back() != '\n')
        return "exposition does not end in a newline";

    std::string family;   // current # TYPE family
    std::string type;     // its announced type
    bool sawWidx = false; // at least one widx_* family
    bool sawInf = true;   // previous histogram closed with +Inf
    double prevLe = 0;
    double prevCum = 0;
    bool inBuckets = false;
    std::unordered_set<std::string> seen; // series already sampled

    std::size_t pos = 0;
    unsigned lineNo = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        const std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;
        ++lineNo;
        auto fail = [&](const std::string &why) {
            return "line " + std::to_string(lineNo) + ": " + why +
                   ": " + line;
        };

        if (line.empty())
            return fail("blank line");
        if (line[0] == '#') {
            if (line.rfind("# HELP ", 0) == 0)
                continue;
            if (line.rfind("# TYPE ", 0) != 0)
                return fail("unknown comment form");
            if (inBuckets && !sawInf)
                return fail("previous histogram missing +Inf");
            const std::string rest = line.substr(7);
            const std::size_t sp = rest.find(' ');
            if (sp == std::string::npos)
                return fail("malformed TYPE line");
            family = rest.substr(0, sp);
            type = rest.substr(sp + 1);
            if (!validName(family))
                return fail("invalid family name");
            if (type != "counter" && type != "gauge" &&
                type != "histogram")
                return fail("unknown type");
            if (family.rfind("widx_", 0) == 0)
                sawWidx = true;
            inBuckets = false;
            sawInf = true;
            continue;
        }

        std::string name, series;
        bool hasLe = false;
        double le = 0, value = 0;
        if (!parseSampleLine(line, name, series, hasLe, le, value))
            return fail("unparsable sample");
        if (family.empty())
            return fail("sample before any # TYPE");
        if (!seen.insert(series).second)
            return fail("series exported twice");

        if (type == "histogram") {
            if (name == family + "_bucket") {
                if (!hasLe)
                    return fail("bucket without le");
                if (inBuckets && !(le > prevLe) && !sawInf)
                    return fail("le bounds not increasing");
                if (inBuckets && !sawInf && value < prevCum)
                    return fail("cumulative count decreased");
                inBuckets = true;
                sawInf = le ==
                         std::numeric_limits<double>::infinity();
                prevLe = le;
                prevCum = value;
                continue;
            }
            if (name == family + "_sum" || name == family + "_count")
                continue;
            return fail("sample name outside histogram family");
        }
        if (name != family)
            return fail("sample name outside its family");
        if (type == "counter" && value < 0)
            return fail("negative counter");
    }
    if (inBuckets && !sawInf)
        return "final histogram missing +Inf bucket";
    if (!sawWidx)
        return "no widx_* family in the exposition";
    return {};
}

} // namespace

int
main(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    int port = 0;
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view a = argv[i];
        if (a == "--host" && i + 1 < argc) {
            host = argv[++i];
        } else if (a == "--port" && i + 1 < argc) {
            port = std::atoi(argv[++i]);
        } else if (a == "--quiet") {
            quiet = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s --port P [--host H] [--quiet]\n",
                         argv[0]);
            return 2;
        }
    }
    if (port <= 0 || port > 65535) {
        std::fprintf(stderr, "widx_stats: --port is required\n");
        return 2;
    }

    widx::net::TcpIndexClient client(host, widx::u16(port));
    const std::string text = client.stats();
    client.close();

    const std::string err = validateExposition(text);
    if (!err.empty()) {
        std::fprintf(stderr, "widx_stats: malformed exposition: %s\n",
                     err.c_str());
        return 1;
    }
    if (!quiet)
        std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
}
