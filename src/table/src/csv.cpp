#include "rainshine/table/csv.hpp"

#include <fstream>
#include <sstream>

#include "rainshine/ingest/metrics.hpp"
#include "rainshine/util/check.hpp"
#include "rainshine/util/strings.hpp"

namespace rainshine::table {

namespace {

using ingest::ErrorPolicy;
using ingest::IngestReport;
using ingest::ReasonCode;

/// Splits one CSV record honoring RFC 4180 quoting.
std::vector<std::string> split_record(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c != '\r') {
      field += c;
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

std::string quote_if_needed(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

ColumnType infer_type(const std::vector<std::string>& cells) {
  bool all_int = true;
  bool all_num = true;
  bool any_value = false;
  for (const auto& cell : cells) {
    if (cell.empty()) continue;
    any_value = true;
    long long iv = 0;
    double dv = 0.0;
    if (!util::parse_int(cell, iv)) all_int = false;
    if (!util::parse_double(cell, dv)) all_num = false;
  }
  if (!any_value || !all_num) return ColumnType::kNominal;
  return all_int ? ColumnType::kOrdinal : ColumnType::kContinuous;
}

/// Strips a UTF-8 byte-order mark (common in spreadsheet exports).
void strip_bom(std::string& line) {
  if (line.size() >= 3 && line[0] == '\xEF' && line[1] == '\xBB' &&
      line[2] == '\xBF') {
    line.erase(0, 3);
  }
}

/// Reads one logical CSV record into `record`, continuing across physical
/// lines while a quoted field is still open (RFC 4180 allows embedded
/// newlines inside quotes — write_csv emits them, so read_csv must take them
/// back). `lines` receives the physical line count consumed (0 at EOF).
/// Quote parity is what matters: an escaped "" flips the state twice, so the
/// record ends exactly when every opened quote has closed.
bool read_record(std::istream& in, std::string& record, std::size_t& lines) {
  record.clear();
  lines = 0;
  std::string line;
  bool quote_open = false;
  while (std::getline(in, line)) {
    ++lines;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF input
    if (lines > 1) record += '\n';
    record += line;
    for (const char c : line) {
      if (c == '"') quote_open = !quote_open;
    }
    if (!quote_open) return true;
  }
  // EOF inside an open quote: surface whatever accumulated; the field-count
  // check downstream will flag the damage.
  return lines > 0;
}

/// True when `cell` parses as `type` (empty cells are missing, always fine).
bool cell_parses(const std::string& cell, ColumnType type) {
  if (cell.empty()) return true;
  long long iv = 0;
  double dv = 0.0;
  switch (type) {
    case ColumnType::kContinuous: return util::parse_double(cell, dv);
    case ColumnType::kOrdinal: return util::parse_int(cell, iv);
    case ColumnType::kNominal: return true;
  }
  return true;
}

void push_cell(Column& col, const std::string& cell) {
  if (cell.empty()) {
    col.push_missing();
    return;
  }
  switch (col.type()) {
    case ColumnType::kContinuous: {
      double v = 0.0;
      if (!util::parse_double(cell, v)) {
        util::ensure(false, "unvalidated continuous cell: " + cell);
      }
      col.push_continuous(v);
      return;
    }
    case ColumnType::kOrdinal: {
      long long v = 0;
      if (!util::parse_int(cell, v)) {
        util::ensure(false, "unvalidated ordinal cell: " + cell);
      }
      col.push_ordinal(static_cast<std::int32_t>(v));
      return;
    }
    case ColumnType::kNominal:
      col.push_nominal(cell);
      return;
  }
}

}  // namespace

Table read_csv(std::istream& in, std::span<const CsvSchemaEntry> schema,
               const CsvReadOptions& options, IngestReport* report) {
  // Accounting always runs — into the caller's report when one is supplied
  // (snapshotting it first so cross-read reuse publishes only this pass's
  // delta), or into a local one so metrics don't depend on the caller
  // wanting a report.
  ingest::IngestReport local_report;
  ingest::IngestReport* rep = report != nullptr ? report : &local_report;
  const ingest::IngestReport before = *rep;

  const ErrorPolicy policy = options.policy;
  std::string line;
  std::size_t lines_read = 0;
  util::require(read_record(in, line, lines_read), "CSV row 1: missing header");
  strip_bom(line);
  const std::vector<std::string> header = split_record(line);
  std::size_t physical_line = lines_read;  // header ends on this line

  if (!schema.empty()) {
    util::require(schema.size() == header.size(),
                  "CSV row 1: schema declares " + std::to_string(schema.size()) +
                      " columns, header has " + std::to_string(header.size()));
    for (std::size_t i = 0; i < header.size(); ++i) {
      util::require(schema[i].name == header[i],
                    "CSV row 1, column '" + header[i] +
                        "': schema expects column '" + schema[i].name + "'");
    }
  }

  // Buffer all records; we need a full pass for type inference anyway.
  std::vector<std::vector<std::string>> records;
  while (read_record(in, line, lines_read)) {
    // `row` is the 1-based physical line the record starts on (header =
    // row 1), so diagnostics keep pointing at real file lines even when
    // quoted records span several of them.
    const std::size_t row = physical_line + 1;
    physical_line += lines_read;
    // An empty line is a record only for single-column tables (one missing
    // cell); in wider tables it is formatting noise and is skipped.
    if (line.empty() && header.size() > 1) continue;
    rep->saw_row();
    auto fields = split_record(line);
    if (fields.size() != header.size()) {
      const std::string detail = "expected " + std::to_string(header.size()) +
                                 " fields, got " + std::to_string(fields.size());
      util::require(policy != ErrorPolicy::kStrict,
                    "CSV row " + std::to_string(row) + ": " + detail);
      rep->quarantine({row, "", ReasonCode::kWidthMismatch, detail});
      continue;
    }
    // With a declared schema, reject or repair cells that fail their type
    // before any column is built, so surviving columns stay row-aligned.
    bool rejected = false;
    for (std::size_t c = 0; c < schema.size() && !rejected; ++c) {
      if (cell_parses(fields[c], schema[c].type)) continue;
      const std::string detail = "bad " + std::string(to_string(schema[c].type)) +
                                 " cell '" + fields[c] + "'";
      switch (policy) {
        case ErrorPolicy::kStrict:
          throw util::precondition_error("CSV row " + std::to_string(row) +
                                         ", column '" + schema[c].name +
                                         "': " + detail);
        case ErrorPolicy::kQuarantine:
          rep->quarantine({row, schema[c].name, ReasonCode::kBadNumber, detail});
          rejected = true;
          break;
        case ErrorPolicy::kRepair:
          fields[c].clear();  // documented fixup: unparseable -> missing
          rep->repair({row, schema[c].name, ReasonCode::kBadNumber, detail});
          break;
      }
    }
    if (rejected) continue;
    rep->accept();
    records.push_back(std::move(fields));
  }
  ingest::publish_report_delta(before, *rep);

  Table out;
  for (std::size_t c = 0; c < header.size(); ++c) {
    ColumnType type;
    if (!schema.empty()) {
      type = schema[c].type;
    } else {
      std::vector<std::string> cells;
      cells.reserve(records.size());
      for (const auto& rec : records) cells.push_back(rec[c]);
      type = infer_type(cells);
    }
    Column col(type);
    for (const auto& rec : records) push_cell(col, rec[c]);
    out.add_column(header[c], std::move(col));
  }
  return out;
}

Table read_csv(std::istream& in, std::span<const CsvSchemaEntry> schema) {
  return read_csv(in, schema, CsvReadOptions{}, nullptr);
}

Table read_csv_file(const std::string& path, std::span<const CsvSchemaEntry> schema,
                    const CsvReadOptions& options, IngestReport* report) {
  std::ifstream in(path);
  util::require(in.good(), "cannot open CSV file: " + path);
  return read_csv(in, schema, options, report);
}

Table read_csv_file(const std::string& path, std::span<const CsvSchemaEntry> schema) {
  return read_csv_file(path, schema, CsvReadOptions{}, nullptr);
}

void write_csv(const Table& table, std::ostream& out) {
  for (std::size_t c = 0; c < table.num_columns(); ++c) {
    if (c) out << ',';
    out << quote_if_needed(table.column_name(c));
  }
  out << '\n';
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t c = 0; c < table.num_columns(); ++c) {
      if (c) out << ',';
      out << quote_if_needed(table.column_at(c).cell_to_string(r));
    }
    out << '\n';
  }
}

void write_csv_file(const Table& table, const std::string& path) {
  std::ofstream out(path);
  util::require(out.good(), "cannot open CSV file for writing: " + path);
  write_csv(table, out);
  util::require(out.good(), "I/O error writing CSV file: " + path);
}

}  // namespace rainshine::table
