/**
 * @file
 * The shared regression gate of the `--check` benches and the one
 * writer of every committed `BENCH_*.json`.
 *
 * A bench measures, fills a Table of metric rows in the order the
 * JSON file lists them, and hands it to gate::finish(): that prints
 * the JSON, writes it to `--json=PATH`, and with `--check=PATH`
 * compares today's rows against the committed file. Each row's Kind
 * says how it is gated:
 *
 *   Report     written, never gated.
 *   Exact      a simulated quantity (event count, stream hash): must
 *              equal the committed value ("DIVERGED").
 *   Floor      host throughput: at least want * (1 - tol)
 *              ("REGRESSED").
 *   Band       within want * (1 +- tol) ("OUT OF BAND").
 *   Minimum    at least a fixed requirement, gated only when the
 *              bench says the host can show it ("TOO SLOW").
 *   Invariant  a named property of today's run, independent of the
 *              committed file and not written to it ("VIOLATED").
 *
 * Floor and Band rows are skipped when the committed file lacks the
 * key or records a value <= 0; Exact rows are skipped only when the
 * key is missing.
 */

#ifndef DSASIM_BENCH_GATE_HH
#define DSASIM_BENCH_GATE_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace dsasim::bench::gate
{

enum class Kind
{
    Report,
    Exact,
    Floor,
    Band,
    Minimum,
    Invariant,
};

struct Row
{
    std::string key;
    Kind kind = Kind::Report;
    /** The value exactly as written to the JSON file. */
    std::string json;
    /** Numeric rows: the gated value. */
    double value = 0;
    /** Numeric rows: decimals in the JSON file and the table. */
    int precision = 0;
    bool numeric = true;
    /** Minimum: the required value. */
    double required = 0;
    /** Invariant: whether it held. */
    bool holds = true;
    /** Minimum: why it is not gated on this host; empty = gated. */
    std::string skipReason;
};

/** One bench's metric rows, in JSON order. */
class Table
{
  public:
    /** Starts with the `"benchmark": "<name>"` row. */
    explicit Table(std::string benchmark);

    const std::string &name() const { return benchName; }

    Table &report(std::string key, double value, int precision);
    /** A report-only JSON string. */
    Table &text(std::string key, std::string value);
    /** A report-only JSON literal (`true`, `false`). */
    Table &literal(std::string key, std::string json);
    /** An exact count, written as an integer. */
    Table &exact(std::string key, double value);
    /** An exact 64-bit fingerprint, written as 16 hex digits. */
    Table &exactHash(std::string key, std::uint64_t hash);
    Table &floor(std::string key, double value, int precision);
    Table &band(std::string key, double value, int precision);
    /**
     * Gated as value >= @p required unless @p skip_reason is
     * non-empty, in which case the table says why it is not gated.
     */
    Table &minimum(std::string key, double value, int precision,
                   double required, std::string skip_reason = {});
    Table &invariant(std::string what, bool holds);

    /** Write every non-invariant row as one flat JSON object. */
    void emit(std::FILE *f) const;

    /**
     * Gate today's rows against committed JSON text with tolerance
     * @p tol: prints one table line per gated row and returns 0 when
     * all pass, 1 otherwise.
     */
    int check(const std::string &committed, double tol) const;

  private:
    Table &add(Row row);

    std::string benchName;
    std::vector<Row> rows_;
};

/** Table::check against the file at @p path; 2 if unreadable. */
int check(const Table &table, const std::string &path, double tol);

/** The shared `--json=PATH` / `--check=PATH` options. */
struct Args
{
    std::string json;
    std::string check;

    /** Consume @p arg if it is one of the two; false otherwise. */
    bool parse(const std::string &arg);
};

/** Write the table's JSON to @p path; false (and perror) if not. */
bool write(const Table &table, const std::string &path);

/**
 * Print the JSON to stdout, write it to `--json` if given (2 when
 * the file cannot be opened), then run `--check` if given. Returns
 * the bench's exit code.
 */
int finish(const Table &table, const Args &args, double tol);

} // namespace dsasim::bench::gate

#endif // DSASIM_BENCH_GATE_HH
