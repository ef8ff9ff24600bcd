#include "bench/gate.hh"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

namespace dsasim::bench::gate
{
namespace
{

/** Offset just past `"key":` in a flat JSON object, or npos. */
std::size_t
valueAt(const std::string &text, const std::string &key)
{
    auto at = text.find("\"" + key + "\"");
    if (at == std::string::npos)
        return at;
    at = text.find(':', at);
    return at == std::string::npos ? at : at + 1;
}

/** Pull `"key": <number>` out of a flat JSON object. */
bool
jsonNumber(const std::string &text, const std::string &key,
           double &out)
{
    const auto at = valueAt(text, key);
    if (at == std::string::npos)
        return false;
    out = std::strtod(text.c_str() + at, nullptr);
    return true;
}

/** Pull `"key": "value"` out of a flat JSON object. */
bool
jsonString(const std::string &text, const std::string &key,
           std::string &out)
{
    const auto at = valueAt(text, key);
    if (at == std::string::npos)
        return false;
    const auto open = text.find('"', at);
    if (open == std::string::npos)
        return false;
    const auto close = text.find('"', open + 1);
    if (close == std::string::npos)
        return false;
    out = text.substr(open + 1, close - open - 1);
    return true;
}

std::string
fixed(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

std::string
quoted(const std::string &s)
{
    return "\"" + s + "\"";
}

Row
textRow(std::string key, Kind kind, std::string json)
{
    Row r;
    r.key = std::move(key);
    r.kind = kind;
    r.json = std::move(json);
    r.numeric = false;
    return r;
}

Row
numberRow(std::string key, Kind kind, double value, int precision)
{
    Row r = textRow(std::move(key), kind, fixed(value, precision));
    r.value = value;
    r.precision = precision;
    r.numeric = true;
    return r;
}

/** Print one numeric table line; returns 1 on failure. */
int
line(const Row &r, double want, bool ok, const char *bad)
{
    std::printf("%-28s %16.*f  committed %16.*f  %s\n", r.key.c_str(),
                r.precision, r.value, r.precision, want,
                ok ? "ok" : bad);
    return ok ? 0 : 1;
}

} // namespace

Table::Table(std::string benchmark) : benchName(std::move(benchmark))
{
    text("benchmark", benchName);
}

Table &
Table::add(Row row)
{
    rows_.push_back(std::move(row));
    return *this;
}

Table &
Table::report(std::string key, double value, int precision)
{
    return add(numberRow(std::move(key), Kind::Report, value, precision));
}

Table &
Table::text(std::string key, std::string value)
{
    return literal(std::move(key), quoted(value));
}

Table &
Table::literal(std::string key, std::string json)
{
    return add(textRow(std::move(key), Kind::Report, std::move(json)));
}

Table &
Table::exact(std::string key, double value)
{
    return add(numberRow(std::move(key), Kind::Exact, value, 0));
}

Table &
Table::exactHash(std::string key, std::uint64_t hash)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return add(textRow(std::move(key), Kind::Exact, quoted(buf)));
}

Table &
Table::floor(std::string key, double value, int precision)
{
    return add(numberRow(std::move(key), Kind::Floor, value, precision));
}

Table &
Table::band(std::string key, double value, int precision)
{
    return add(numberRow(std::move(key), Kind::Band, value, precision));
}

Table &
Table::minimum(std::string key, double value, int precision,
               double required, std::string skip_reason)
{
    Row r = numberRow(std::move(key), Kind::Minimum, value, precision);
    r.required = required;
    r.skipReason = std::move(skip_reason);
    return add(std::move(r));
}

Table &
Table::invariant(std::string what, bool holds)
{
    Row r = textRow(std::move(what), Kind::Invariant, {});
    r.holds = holds;
    return add(std::move(r));
}

void
Table::emit(std::FILE *f) const
{
    std::fputs("{\n", f);
    const char *sep = "";
    for (const Row &r : rows_) {
        if (r.kind == Kind::Invariant)
            continue;
        std::fprintf(f, "%s  \"%s\": %s", sep, r.key.c_str(),
                     r.json.c_str());
        sep = ",\n";
    }
    std::fputs("\n}\n", f);
}

int
Table::check(const std::string &committed, double tol) const
{
    int failures = 0;
    for (const Row &r : rows_) {
        double want = 0;
        switch (r.kind) {
          case Kind::Report:
            break;
          case Kind::Exact:
            if (r.numeric) {
                if (jsonNumber(committed, r.key, want))
                    failures += line(r, want, r.value == want,
                                     "DIVERGED");
            } else {
                std::string want_text;
                if (jsonString(committed, r.key, want_text)) {
                    const std::string cur =
                        r.json.substr(1, r.json.size() - 2);
                    const bool ok = cur == want_text;
                    std::printf("%-28s %16s  committed %16s  %s\n",
                                r.key.c_str(), cur.c_str(),
                                want_text.c_str(),
                                ok ? "ok" : "DIVERGED");
                    failures += ok ? 0 : 1;
                }
            }
            break;
          case Kind::Floor:
            if (jsonNumber(committed, r.key, want) && want > 0)
                failures += line(r, want,
                                 r.value >= want * (1.0 - tol),
                                 "REGRESSED");
            break;
          case Kind::Band:
            if (jsonNumber(committed, r.key, want) && want > 0)
                failures += line(r, want,
                                 r.value >= want * (1.0 - tol) &&
                                     r.value <= want * (1.0 + tol),
                                 "OUT OF BAND");
            break;
          case Kind::Minimum:
            if (!r.skipReason.empty()) {
                std::printf("%-28s %16.*f  (not gated: %s)\n",
                            r.key.c_str(), r.precision, r.value,
                            r.skipReason.c_str());
            } else {
                const bool ok = r.value >= r.required;
                std::printf("%-28s %16.*f  required  %16.*f  %s\n",
                            r.key.c_str(), r.precision, r.value,
                            r.precision, r.required,
                            ok ? "ok" : "TOO SLOW");
                failures += ok ? 0 : 1;
            }
            break;
          case Kind::Invariant:
            std::printf("%-44s %s\n", r.key.c_str(),
                        r.holds ? "ok" : "VIOLATED");
            failures += r.holds ? 0 : 1;
            break;
        }
    }
    return failures ? 1 : 0;
}

int
check(const Table &table, const std::string &path, double tol)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bench_%s: cannot open %s\n",
                     table.name().c_str(), path.c_str());
        return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    return table.check(ss.str(), tol);
}

bool
Args::parse(const std::string &arg)
{
    if (arg.rfind("--json=", 0) == 0)
        json = arg.substr(7);
    else if (arg.rfind("--check=", 0) == 0)
        check = arg.substr(8);
    else
        return false;
    return true;
}

bool
write(const Table &table, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::perror(("bench_" + table.name() + ": " + path).c_str());
        return false;
    }
    table.emit(f);
    std::fclose(f);
    return true;
}

int
finish(const Table &table, const Args &args, double tol)
{
    table.emit(stdout);
    if (!args.json.empty() && !write(table, args.json))
        return 2;
    return args.check.empty() ? 0 : check(table, args.check, tol);
}

} // namespace dsasim::bench::gate
